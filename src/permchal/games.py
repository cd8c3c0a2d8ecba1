"""Oracle games around a hidden permutation, and their adversary contracts.

A game couples a permutation sigma of [n] = {1, ..., n} with a secret d.
The adversary may query sigma directly (inner queries, optionally also
the inverse) and may query an outer oracle whose queries are first
mapped through a secret-dependent translation into a point of [n] and
whose answers pass through a secret-dependent post-processing step.
Success means outputting a fixed function of the secret.

Element convention: group elements are represented by [n] with n
standing for the residue 0, so all modular arithmetic maps 0 to the
element n. For the XOR-cipher games the bit pattern of an element a is
the standard binary representation of a - 1.

Supported instantiations (``build_game``):

* DLOG:   secrets d in [n]; outer query (a, b) with a != n translates to
          a*d + b mod n; trivial post-processing; target d.
* DDH:    secrets (d1, d2, d3, k); query (a1, a2, a3, b), not all a_i = n,
          translates to a1*d1 + a2*d2 + a3*d3 + b for k = 0 and to
          a1*d1 + a2*d2 + a3*(d1*d2) + b for k = 1; target k.
* SQDDH:  secrets (d1, d2, k); query (a1, a2, b), not both a_i = n,
          translates to a1*d1 + a2*d2 + b for k = 0 and to
          a1*d1 + a2*d1^2 + b for k = 1; target k.
* EM_KR:  secrets (k1, k2); encryption query m translates to m XOR k1,
          answers are post-processed with XOR k2; inverse inner queries
          allowed; target (k1, k2).
* EM_KR_SINGLE: the k1 = k2 variant with secret space [n]; target k1.

The GGM kinds require a prime n and forbid inverse inner queries; the
XOR kinds require n to be a power of two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .bounds import BoundTheorem
from .errors import ContractViolation, ValidationError, nonnegative_int

MAX_SECRET_ENUMERATION = 2_000_000
_INTEGERS = (int, np.integer)


class GameKind(str, Enum):
    DLOG = "DLOG"
    DDH = "DDH"
    SQDDH = "SQDDH"
    EM_KR = "EM_KR"
    EM_KR_SINGLE = "EM_KR_SINGLE"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def random_sigma(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform permutation of [n] as a 1-based int64 value array (Fisher-Yates)."""
    sigma = rng.permutation(n)  # int64 already: shift it in place
    sigma += 1
    return sigma


def _sample_outside(n: int, excluded, rng: np.random.Generator) -> int:
    """Uniform element of [n] outside ``excluded``, by rejection."""
    if len(excluded) >= n:
        raise ValidationError("no values left to sample")
    while True:
        v = int(rng.integers(1, n + 1))
        if v not in excluded:
            return v


class LazyPermutation:
    """Uniform permutation of [n], drawn one point at a time as it is read.

    Indexed like the array of ``random_sigma``: ``sigma[i]`` is the image
    of the element i + 1, for a slot 0 <= i < n. A slot is drawn the
    first time it is read, uniformly from the values no earlier read has
    taken, which is its exact conditional law under a uniform
    permutation; so every sequence of reads has the same distribution as
    on a materialised array, while memory grows only with the number of
    slots read. This makes games at group sizes where an n-entry array
    is out of reach exact, provided the adversary reads few points.
    ``inverse`` is the same permutation read the other way round; it
    shares the state, so both directions stay consistent.

    ``take(slots)`` is the batch read, with the signature of
    ``np.ndarray.take``: it maps a one-dimensional integer slot array to
    the int64 array of images, with the law of the scalar reads made one
    after another in the same order. Each slot not read before takes a
    value uniform over the values not yet used, and a slot repeated
    within the batch reads one value.
    """

    def __init__(self, n: int, rng: np.random.Generator):
        if not (isinstance(n, _INTEGERS) and n >= 1):
            raise ValidationError(f"LazyPermutation: n={n!r} must be a positive integer")
        self.n = int(n)
        self._rng = rng
        self._image: dict = {}
        self._preimage: dict = {}

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, slot) -> int:
        if not (isinstance(slot, _INTEGERS) and 0 <= slot < self.n):
            raise ValidationError(f"slot {slot!r} out of range [0, {self.n})")
        x = int(slot) + 1
        v = self._image.get(x)
        if v is None:
            v = _sample_outside(self.n, self._preimage.keys(), self._rng)
            self._image[x] = v
            self._preimage[v] = x
        return v

    def take(self, slots) -> np.ndarray:
        slots = np.asarray(slots)
        if slots.ndim != 1 or slots.dtype.kind not in "iu":
            raise ValidationError("take: slots must be a one-dimensional integer array")
        if slots.size and not (0 <= slots.min() and slots.max() < self.n):
            raise ValidationError(f"take: slot out of range [0, {self.n})")
        image, preimage = self._image, self._preimage
        elements = (slots.astype(np.int64) + 1).tolist()
        pending = list(set(elements).difference(image))
        # Each round gives every pending element a uniform candidate and
        # keeps it if no value taken so far equals it. The rounds commute
        # with every relabelling of the unused values, and those act
        # transitively on the one-to-one assignments of pending elements to
        # unused values, so the assignment is uniform among them: the law
        # of scalar reads one after another.
        while pending:
            candidates = self._rng.integers(1, self.n + 1, size=len(pending)).tolist()
            redraw = []
            for x, v in zip(pending, candidates):
                if v in preimage:
                    redraw.append(x)
                else:
                    image[x], preimage[v] = v, x
            pending = redraw
        return np.fromiter(map(image.__getitem__, elements), np.int64, len(elements))

    @property
    def inverse(self) -> "LazyPermutation":
        inv = LazyPermutation(self.n, self._rng)
        inv._image, inv._preimage = self._preimage, self._image
        return inv


def sigma_inverse(sigma: np.ndarray | LazyPermutation) -> np.ndarray | LazyPermutation:
    if isinstance(sigma, LazyPermutation):
        return sigma.inverse
    inv = np.empty_like(sigma)
    inv[sigma - 1] = np.arange(1, len(sigma) + 1, dtype=sigma.dtype)
    return inv


class GameTranscript(NamedTuple):
    sigma: np.ndarray | LazyPermutation
    secret: object
    advice: str
    inner_answers: tuple
    outer_answers: tuple
    output: object
    success: int

    @property
    def t1(self) -> int:
        return len(self.inner_answers)

    @property
    def t2(self) -> int:
        return len(self.outer_answers)


class PCGame:
    """Base class. A game is one subclass, listed in ``GAMES``, that states
    ``kind``, ``alias`` (its CLI and CSV name), ``theorem`` (its ceiling), its
    query space and its translation; secrets default to [n], each its own target."""

    kind: GameKind
    alias: str
    theorem: BoundTheorem
    allow_inverse_inner = False

    def __init__(self, n: int):
        self.n = nonnegative_int(n, f"{type(self).__name__}: n")

    # -- element helpers ---------------------------------------------------
    def element_from_index(self, idx: int) -> int:
        """Map the 0-based internal index back to an element of [n]."""
        raise NotImplementedError

    # -- secrets -----------------------------------------------------------
    @property
    def secret_count(self) -> int:
        return self.n

    def sample_secret(self, rng: np.random.Generator):
        return int(rng.integers(1, self.n + 1))

    def iter_secrets(self) -> Iterator:
        return iter(range(1, self.n + 1))

    def success_target(self, secret):
        return secret

    # -- queries -----------------------------------------------------------
    @property
    def outer_query_count(self) -> int:
        raise NotImplementedError

    def iter_outer_queries(self) -> Iterator:
        raise NotImplementedError

    def validate_outer_query(self, m) -> None:
        raise NotImplementedError

    def _coefficients(self, secret):
        """What the translation reads of a secret.

        Plain integer arithmetic, so it takes one secret (Python ints) or
        every secret at once as the int64 columns of ``iter_secrets()``.
        """
        raise NotImplementedError

    def _translate_index(self, coefficients, m):
        """0-based index of the sigma input addressed by outer query m;
        broadcasts over coefficient columns."""
        raise NotImplementedError

    def _class_leaders(self) -> Iterator:
        """The outer queries measure_uniformity scans, in iter_outer_queries
        order: every other query's counts relabel those of an earlier one."""
        return self.iter_outer_queries()

    def _element(self, coefficients, m) -> int:
        """The element of [n] that outer query m reads under the secret's
        ``_coefficients``: the one check of a query on every path that
        answers one. An invalid query, a float coordinate (the index is no
        integer) or a coordinate that is no number is a ``ValidationError``."""
        try:
            self.validate_outer_query(m)
            idx = self._translate_index(coefficients, m)
        except TypeError:
            idx = None
        if not isinstance(idx, _INTEGERS):
            raise ValidationError(f"outer query {m!r}: coordinates must be integers")
        return self.element_from_index(idx)

    def translate(self, secret, m) -> int:
        return self._element(self._coefficients(secret), m)

    def post_process(self, secret, j):
        """The answer to an outer query that read sigma's value j; also
        elementwise on an integer array of values. The identity, unless the
        game overrides it."""
        return j

    @cached_property
    def _secret_columns(self):
        """``_coefficients`` of every secret, in iter_secrets order.

        The secrets stream into one int64 array, a row per secret (a
        tuple secret fills its row), with no list of secrets in between.
        """
        if self.secret_count > MAX_SECRET_ENUMERATION:
            raise ValidationError(
                f"secret space of size {self.secret_count} is too large to enumerate"
            )
        first = next(self.iter_secrets(), None)
        dtype = np.dtype((np.int64, len(first))) if isinstance(first, tuple) else np.int64
        secrets = np.fromiter(self.iter_secrets(), dtype=dtype, count=self.secret_count)
        return self._coefficients(secrets.T)


class _GgmGame(PCGame):
    """Outer queries (a_1, .., a_arity, b) over [n], not every a_i = n;
    each translates to sum a_i * c_i + b mod n for the secret's
    coefficients c."""

    arity: int

    def __init__(self, n: int):
        super().__init__(n)
        if not is_prime(self.n):
            raise ValidationError(f"{type(self).__name__}: n={n} must be prime")

    def element_from_index(self, idx: int) -> int:
        return self.n if idx == 0 else idx

    def _slopes(self) -> Iterator:
        """Every (a_1, .., a_arity) in lexicographic order but the last, all-n one."""
        n = self.n
        return itertools.islice(itertools.product(range(1, n + 1), repeat=self.arity), n**self.arity - 1)

    @property
    def outer_query_count(self) -> int:
        return self.n ** (self.arity + 1) - self.n

    def iter_outer_queries(self):
        elements = range(1, self.n + 1)
        return (a + (b,) for a in self._slopes() for b in elements)

    def _class_leaders(self):
        # (u*a.c + b) mod n: query (u*a.., b) relabels (a.., 1)'s counts by
        # j -> u(j - 1) + b. Leaders are the slopes whose first coefficient
        # other than n is 1, each class's first in _slopes order.
        n, k = self.n, self.arity
        return ((n,) * i + (1,) + rest + (1,)
                for i in range(k) for rest in itertools.product(range(1, n + 1), repeat=k - 1 - i))


class _DecisionGame(_GgmGame):
    """Secrets (d_1, .., d_arity, k) in [n]^arity x {0, 1}; target the bit k."""

    theorem = BoundTheorem.T12

    @property
    def secret_count(self) -> int:
        return 2 * self.n**self.arity

    def sample_secret(self, rng):
        # group elements, then the bit: the draw order the golden trial streams pin
        d = rng.integers(1, self.n + 1, size=self.arity).tolist()
        return (*d, int(rng.integers(0, 2)))

    def iter_secrets(self):
        return itertools.product(*[range(1, self.n + 1)] * self.arity, (0, 1))

    def success_target(self, secret):
        return secret[-1]


class DlogGame(_GgmGame):
    kind = GameKind.DLOG
    alias = "dlog"
    theorem = BoundTheorem.T11
    arity = 1

    def validate_outer_query(self, m) -> None:
        if not (isinstance(m, tuple) and len(m) == 2):
            raise ValidationError("DLOG outer query must be a pair (a, b)")
        a, b = m
        if not (1 <= a <= self.n - 1 and 1 <= b <= self.n):
            raise ValidationError(f"DLOG outer query {m!r} out of range")

    def _coefficients(self, secret):
        return secret % self.n

    def _translate_index(self, d, m):
        a, b = m
        return (a * d + b) % self.n


class DdhGame(_DecisionGame):
    kind = GameKind.DDH
    alias = "ddh"
    arity = 3

    def validate_outer_query(self, m) -> None:
        if not (isinstance(m, tuple) and len(m) == 4):
            raise ValidationError("DDH outer query must be (a1, a2, a3, b)")
        a1, a2, a3, b = m
        n = self.n
        if not (1 <= a1 <= n and 1 <= a2 <= n and 1 <= a3 <= n and 1 <= b <= n):
            raise ValidationError(f"DDH outer query {m!r} out of range")
        if a1 == self.n and a2 == self.n and a3 == self.n:
            raise ValidationError("DDH outer query with a1=a2=a3=0 is an inner query")

    def _coefficients(self, secret):
        d1, d2, d3, k = secret
        n = self.n
        r1, r2 = d1 % n, d2 % n
        return r1, r2, k * (r1 * r2 % n) + (1 - k) * (d3 % n)

    def _translate_index(self, coefficients, m):
        r1, r2, quad = coefficients
        a1, a2, a3, b = m
        return (a1 * r1 + a2 * r2 + a3 * quad + b) % self.n


class SqddhGame(_DecisionGame):
    kind = GameKind.SQDDH
    alias = "sqddh"
    arity = 2

    def validate_outer_query(self, m) -> None:
        if not (isinstance(m, tuple) and len(m) == 3):
            raise ValidationError("sqDDH outer query must be (a1, a2, b)")
        a1, a2, b = m
        n = self.n
        if not (1 <= a1 <= n and 1 <= a2 <= n and 1 <= b <= n):
            raise ValidationError(f"sqDDH outer query {m!r} out of range")
        if a1 == self.n and a2 == self.n:
            raise ValidationError("sqDDH outer query with a1=a2=0 is an inner query")

    def _coefficients(self, secret):
        d1, d2, k = secret
        n = self.n
        r1 = d1 % n
        return r1, k * (r1 * r1 % n) + (1 - k) * (d2 % n)

    def _translate_index(self, coefficients, m):
        r1, second = coefficients
        a1, a2, b = m
        return (a1 * r1 + a2 * second + b) % self.n


class _EmGame(PCGame):
    theorem = BoundTheorem.T13
    allow_inverse_inner = True

    def __init__(self, n: int):
        super().__init__(n)
        if not is_power_of_two(self.n):
            raise ValidationError(f"{type(self).__name__}: n={n} must be a power of two")

    def element_from_index(self, idx: int) -> int:
        return idx + 1

    @staticmethod
    def _bits(element: int) -> int:
        return element - 1

    def _translate_index(self, k1, m):
        return self._bits(m) ^ k1

    def _class_leaders(self):
        # bits(m) ^ k1: query m relabels query 1's counts by XOR with bits(m)
        return iter((1,))

    @property
    def outer_query_count(self) -> int:
        return self.n

    def iter_outer_queries(self):
        return iter(range(1, self.n + 1))

    def validate_outer_query(self, m) -> None:
        if not (isinstance(m, _INTEGERS) and 1 <= m <= self.n):
            raise ValidationError(f"encryption query {m!r} out of range")


class EmKrGame(_EmGame):
    kind = GameKind.EM_KR
    alias = "em"

    @property
    def secret_count(self) -> int:
        return self.n**2

    def sample_secret(self, rng):
        return tuple(rng.integers(1, self.n + 1, size=2).tolist())

    def iter_secrets(self):
        return itertools.product(range(1, self.n + 1), repeat=2)

    def _coefficients(self, secret):
        return self._bits(secret[0])

    def post_process(self, secret, j):
        return (self._bits(j) ^ self._bits(secret[1])) + 1


class EmKrSingleGame(_EmGame):
    kind = GameKind.EM_KR_SINGLE
    alias = "em1k"

    def _coefficients(self, secret):
        return self._bits(secret)

    def post_process(self, secret, j):
        return (self._bits(j) ^ self._bits(secret)) + 1


GAMES = {cls.kind: cls for cls in (DlogGame, DdhGame, SqddhGame, EmKrGame, EmKrSingleGame)}
GAME_ALIASES = {cls.alias: kind for kind, cls in GAMES.items()}


def build_game(kind, n: int) -> PCGame:
    if kind not in GAMES:
        raise ValidationError(f"unknown game kind {kind!r}")
    return GAMES[kind](n)


# ---------------------------------------------------------------------------
# Adversary contracts
# ---------------------------------------------------------------------------


class _Adversary:
    """Advice bound S and query budget T (None: unbounded) of either contract.

    ``required`` is the advice length the attack's encoding needs; S
    defaults to it, and a smaller S is a ``ValidationError``.
    """

    def __init__(self, s_bits: Optional[int], t_budget: Optional[int] = None, required: int = 0):
        s_bits = required if s_bits is None else nonnegative_int(s_bits, "s_bits")
        if required > s_bits:
            raise ValidationError(f"the advice encoding needs {required} bits, bound is {s_bits}")
        self.s_bits = s_bits
        self.t_budget = t_budget

    def preprocess(self, sigma: np.ndarray) -> str:
        return ""


class NonAdaptiveAdversary(_Adversary):
    """Commits to all queries after seeing only the advice string.

    Subclasses implement ``decide`` and state a fixed plan of outer
    queries as ``queries``, or override ``plan`` when the plan depends
    on the advice. ``play_game`` calls ``plan(z)`` once per trial, with the
    advice as its only input, answers the plan, then calls ``decide``
    once; a plan of more than ``t_budget`` queries is a contract violation.
    """

    adaptive = False
    queries = ()

    def plan(self, z: str):
        return (), self.queries

    def decide(self, z: str, inner_answers: tuple, outer_answers: tuple):
        raise NotImplementedError


class AdaptiveAdversary(_Adversary):
    """Step-wise adversary driving a query oracle; excluded from the
    non-adaptive bound comparisons."""

    adaptive = True

    def run(self, z: str, oracle: "GameOracle"):
        raise NotImplementedError


class GameOracle:
    """The one query interface of a game: answers, counts and logs queries.

    Adaptive adversaries drive it one query at a time; ``play_game``
    answers a non-adaptive plan with ``answer_plan``, the one place an
    inner query is checked and read (``inner`` is a plan of one).
    ``inner_log`` and ``outer_log`` hold every answer in order. ``sigma``
    is a permutation array or a ``LazyPermutation``, as in ``play_game``,
    and T a non-negative integer or None (unbounded). A query is
    validated before it is charged to T, so a rejected query leaves
    ``remaining`` as it was.
    """

    def __init__(
        self, game: PCGame, sigma: np.ndarray | LazyPermutation, secret, t_budget: Optional[int]
    ):
        self._game = game
        self._sigma = sigma
        self._inv: Optional[np.ndarray] = None
        self._secret = secret
        self._coefficients = game._coefficients(secret)
        self._left = None if t_budget is None else nonnegative_int(t_budget, "GameOracle: t_budget")
        self.inner_log: list = []
        self.outer_log: list = []

    @property
    def remaining(self) -> Optional[int]:
        """Queries left of the budget T; None when it is unbounded."""
        return self._left

    def _spend(self, count: int) -> None:
        if self._left is not None:
            if count > self._left:
                raise ContractViolation(f"query budget exceeded: {count} asked, {self._left} left")
            self._left -= count

    def inner(self, i: int, inverse: bool = False) -> int:
        return self.answer_plan([(i, inverse)], ())[0][0]

    def outer(self, m) -> int:
        game = self._game
        element = game._element(self._coefficients, m)
        self._spend(1)
        v = game.post_process(self._secret, int(self._sigma[element - 1]))
        self.outer_log.append(v)
        return v

    def answer_plan(self, inner_queries, outer_queries) -> tuple:
        """The inner and outer answers to a whole non-adaptive plan.

        An inner query is i or (i, inverse), inverse a (numpy) bool. Every
        query is validated, the outer ones as by ``outer``, then the plan is
        charged at once, then answered: the inner queries in order, the
        outer ones by one gather ``sigma.take`` of their translated slots
        and one ``post_process`` of the values read. On an array sigma the
        answers are those of ``inner`` and ``outer`` one after another; on
        a ``LazyPermutation`` they have the same law.
        """
        if not (len(inner_queries) or len(outer_queries)):
            return (), ()  # nothing to read: a plan of no queries is common (a constant guess)
        game = self._game
        inner = [q if isinstance(q, tuple) else (q, False) for q in inner_queries]
        for q in inner:
            if len(q) != 2:
                raise ValidationError(f"inner query {q!r} is neither i nor (i, inverse)")
            i, inverse = q
            if not isinstance(inverse, (bool, np.bool_)):
                raise ValidationError(f"inner query {q!r}: the inverse flag must be a bool")
            if inverse and not game.allow_inverse_inner:
                raise ContractViolation(f"{game.kind.value} forbids inverse inner queries")
            if not (isinstance(i, _INTEGERS) and 1 <= i <= game.n):
                raise ValidationError(f"inner query {i!r} out of range [1, {game.n}]")
        # each outer query is translated on its own, in exact Python integers: for plans of a
        # few dozen queries that beats a dozen numpy calls broadcasting over query columns
        slots = [game._element(self._coefficients, m) - 1 for m in outer_queries]
        self._spend(len(inner) + len(slots))
        if self._inv is None and any(inverse for _, inverse in inner):
            self._inv = sigma_inverse(self._sigma)
        inner_answers = [int((self._inv if inverse else self._sigma)[i - 1]) for i, inverse in inner]
        outer_answers = game.post_process(self._secret, self._sigma.take(slots)).tolist() if slots else []
        self.inner_log += inner_answers
        self.outer_log += outer_answers
        return tuple(inner_answers), tuple(outer_answers)


def play_game(game: PCGame, adversary, sigma, secret) -> GameTranscript:
    """Run one full game and assemble the transcript.

    The preprocessing stage receives the whole permutation; the online
    stage is driven per the adversary's adaptivity contract, and every
    query is answered by a ``GameOracle``: an adaptive adversary drives
    it; a non-adaptive one is asked for its plan once, with the advice as
    its only input, and decides once on the answers. Either way the
    transcript's answers are the oracle's logs. Advice over ``s_bits`` or
    more than ``t_budget`` queries is a ``ContractViolation``.
    Success is the comparison of the output with the game's function of the secret.
    ``sigma`` is a permutation array of length n or a ``LazyPermutation``
    of [n]; the lazy one is drawn as the adversary reads it. Only an
    array's integer dtype and length are checked: that its values form a
    permutation of [n] is the caller's job.
    """
    if isinstance(sigma, LazyPermutation):
        if sigma.n != game.n:
            raise ValidationError("sigma must be a lazy permutation of [n]")
    else:
        sigma = np.asarray(sigma)
        if sigma.dtype.kind not in "iu" or sigma.shape != (game.n,):
            raise ValidationError(
                f"sigma must be an integer permutation array of length n, not {sigma.dtype} {sigma.shape}"
            )
        sigma = sigma.astype(np.int64, copy=False)

    advice = adversary.preprocess(sigma)
    if len(advice) > adversary.s_bits:
        raise ContractViolation(
            f"advice length {len(advice)} exceeds the declared bound {adversary.s_bits}"
        )

    oracle = GameOracle(game, sigma, secret, adversary.t_budget)
    if adversary.adaptive:
        output = adversary.run(advice, oracle)
    else:
        output = adversary.decide(advice, *oracle.answer_plan(*adversary.plan(advice)))

    success = int(output == game.success_target(secret))
    return GameTranscript(
        sigma=sigma,
        secret=secret,
        advice=advice,
        inner_answers=tuple(oracle.inner_log),
        outer_answers=tuple(oracle.outer_log),
        output=output,
        success=success,
    )


@dataclass(frozen=True)
class UniformityResult:
    u: float
    worst_query: object
    worst_target: int
    max_fiber: int
    secret_count: int


def measure_uniformity(game: PCGame) -> UniformityResult:
    """Exhaustive u = |D| / max_{m,j} |{d : translate(d, m) = j}|.

    Scans one leader query per class of ``_class_leaders``: every other query
    of a class relabels its leader's counts and comes after it, so the result
    is a full scan's. For the GGM games a class is a line through the origin
    and its offsets, (u*a.., b) for every unit u and every b; for the
    Even–Mansour games it is every query. Enumerates the full secret space,
    so it is restricted to desk-scale games.
    """
    if game.outer_query_count == 0:
        raise ValidationError("measure_uniformity: empty outer query space")
    columns = game._secret_columns
    best_fiber = 0
    worst_query = None
    worst_idx = 0
    for m in game._class_leaders():
        counts = np.bincount(game._translate_index(columns, m), minlength=game.n)
        fiber = int(counts.max())
        if fiber > best_fiber:
            best_fiber = fiber
            worst_query = m
            worst_idx = int(counts.argmax())
    return UniformityResult(
        u=game.secret_count / best_fiber,
        worst_query=worst_query,
        worst_target=game.element_from_index(worst_idx),
        max_fiber=best_fiber,
        secret_count=game.secret_count,
    )

"""Reference adversaries for the oracle games.

Non-adaptive preprocessing attacks (compared against the closed-form
ceilings):

* baby-step giant-step for the hidden-exponent search game;
* an XOR-difference table attack recovering both keys of the XOR cipher;
* a majority-advice distinguisher for the squared decision game.

Adaptive baselines (excluded from those comparisons, kept for contrast):

* cycle-finding collision search for the hidden exponent;
* endpoint-table random-walk chains exploiting preprocessing.

Plus the multi-instance search game used to probe how colliding query
sets determine later secrets. ``ATTACKS`` registers every attack class
by name (see ``Attack``). An attack is built one way,
``cls(game, t, s_bits=None, seed=0)``: from the game it plays, its query
budget T and its advice bound S, the only parameters of a preprocessing
attack, and it derives every other size from them.

Advice strings are literal '0'/'1' strings; tables of fixed-width fields
go through ``bits_encode_array`` / ``bits_decode_array``. The engine
enforces the declared length bound and the query budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolation, ValidationError, nonnegative_int
from .games import (
    AdaptiveAdversary,
    DlogGame,
    GameKind,
    NonAdaptiveAdversary,
    PCGame,
    random_sigma,
)
from .seeding import mix64, mix64_array, seeded_generator, splitmix64, splitmix64_array


def bits_encode(value: int, width: int) -> str:
    if not (0 <= value < (1 << width)):
        raise ValidationError(f"value {value} does not fit in {width} bits")
    return format(value, f"0{width}b")


def bits_encode_array(values: np.ndarray, width: int) -> str:
    """``bits_encode`` of every entry of a non-negative integer array, each
    below 2**width, concatenated in C order."""
    bits = (values[..., None] >> np.arange(width - 1, -1, -1)) & 1
    return (bits.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


def bits_decode_array(bits: str, width: int) -> np.ndarray:
    """The width-bit fields of ``bits`` as an int64 array; the inverse of
    ``bits_encode_array``."""
    digits = np.frombuffer(bits.encode("ascii"), dtype=np.uint8).reshape(-1, width) - ord("0")
    return digits.astype(np.int64) @ (1 << np.arange(width - 1, -1, -1, dtype=np.int64))


def _field_width(n: int) -> int:
    """Bits of one advice field holding a value in [0, n)."""
    return max(1, (n - 1).bit_length())


def _encoding_table(z: str, width: int) -> dict:
    """Advice of (encoding - 1, exponent) field pairs as encoding -> exponent."""
    fields = bits_decode_array(z, width).tolist()
    return dict(zip([v + 1 for v in fields[0::2]], fields[1::2]))


def _element(residue: int, n: int) -> int:
    return n if residue % n == 0 else residue % n


class Attack:
    """What the harness knows about an attack, declared on its class.

    Every attack is built as ``cls(game, t, s_bits=None, seed=0)``: the
    game it plays, its query budget T, its advice bound S (None: the
    length its encoding needs) and the seed of its keyed functions.

    ``name`` is the registry key and the CSV ``attack`` column, ``games``
    the game kinds it plays, and ``adaptive`` (from the adversary base
    class) exempts it from the non-adaptive ceilings. A ``reseeded``
    attack is rebuilt every trial from the trial seed, any other once per
    chunk of trials. An ``own_game`` attack runs its own experiment
    instead of ``play_game`` and has no ceiling.
    """

    name: str
    games: frozenset
    reseeded = False
    own_game = False

    @classmethod
    def _game_size(cls, game: PCGame) -> int:
        """n of a game this attack plays; the game has validated it."""
        if game.kind not in cls.games:
            raise ValidationError(f"attack {cls.name!r} does not apply to game {game.alias!r}")
        return game.n

    @classmethod
    def _no_advice(cls, s_bits: Optional[int]) -> int:
        """S of an attack that reads no advice: 0, given as 0 or not at all."""
        if s_bits:
            raise ValidationError(
                f"attack {cls.name!r} reads no advice: s_bits must be 0 or unset, not {s_bits}"
            )
        return 0


# ---------------------------------------------------------------------------
# Baby-step giant-step (non-adaptive, hidden-exponent search)
# ---------------------------------------------------------------------------


class BsgsAdversary(Attack, NonAdaptiveAdversary):
    """Table of sigma on 0..m-1 as advice; m stride-m outer queries online,
    with m = t.

    Advice encodes the table sorted by sigma value, 2*ceil(log2 n) bits
    per entry. Outer query i asks for sigma(d + i*m); a table hit at
    row j solves d = j - i*m mod n. With m^2 >= n every secret is
    covered and the attack always succeeds.
    """

    name = "bsgs"
    games = frozenset({GameKind.DLOG})

    def __init__(self, game: PCGame, t: int, s_bits: Optional[int] = None, seed: int = 0):
        n = self.n = self._game_size(game)
        if not (1 <= t <= n):
            raise ValidationError("table width m = t out of range")
        self.m = t
        self.width = _field_width(n)
        super().__init__(s_bits, t, required=t * 2 * self.width)
        self.queries = [(1, _element(i * t, n)) for i in range(t)]
        self._table_slots = (np.arange(t) - 1) % n

    def preprocess(self, sigma: np.ndarray) -> str:
        values = sigma.take(self._table_slots)
        j = np.argsort(values)  # sigma is injective: sorting values sorts (value, j)
        return bits_encode_array(np.stack([values[j] - 1, j], axis=1), self.width)

    def decide(self, z: str, inner_answers, outer_answers):
        table = _encoding_table(z, self.width)
        for i, ans in enumerate(outer_answers):
            j = table.get(ans)
            if j is not None:
                return _element(j - i * self.m, self.n)
        return self.n


# ---------------------------------------------------------------------------
# Cycle-finding collision search (adaptive baseline, no preprocessing)
# ---------------------------------------------------------------------------


class PollardRhoAdversary(Attack, AdaptiveAdversary):
    """Floyd cycle finding over the encoding walk, 3-way partition.

    The walk state is an exponent pair (a, b) addressing sigma(a*d + b);
    the partition class of the current encoding picks the update
    (a+1, b), (2a, 2b) or (a, b+1). A collision with distinct exponent
    pairs solves the secret; degenerate collisions re-randomize the
    start, bounded by the query budget. It reads no advice, so S is 0 or
    not given.
    """

    name = "rho"
    games = frozenset({GameKind.DLOG})
    reseeded = True

    def __init__(self, game: PCGame, t: int, s_bits: Optional[int] = None, seed: int = 0):
        self.n = self._game_size(game)
        if t < 4:
            raise ValidationError("query budget too small")
        super().__init__(s_bits=self._no_advice(s_bits), t_budget=t)
        self.seed = seed

    def run(self, z: str, oracle):
        n = self.n
        rng = np.random.Generator(np.random.PCG64(splitmix64(self.seed)))
        challenge = oracle.outer((1, n))  # sigma(d)

        def query(a: int, b: int) -> int:
            a %= n
            b %= n
            if a == 0:
                return oracle.inner(_element(b, n))
            return oracle.outer((a, _element(b, n)))

        def step(a: int, b: int, enc: int):
            c = enc % 3
            if c == 0:
                a = (a + 1) % n
            elif c == 1:
                a, b = (2 * a) % n, (2 * b) % n
            else:
                b = (b + 1) % n
            return a, b, query(a, b)

        best_guess = n
        while oracle.remaining >= 4:
            a0 = int(rng.integers(1, n))
            b0 = int(rng.integers(0, n))
            try:
                enc0 = query(a0, b0)
                ta, tb, te = step(a0, b0, enc0)
                ha, hb, he = step(ta, tb, te)
                while te != he:
                    ta, tb, te = step(ta, tb, te)
                    ha, hb, he = step(ha, hb, he)
                    ha, hb, he = step(ha, hb, he)
            except ContractViolation:
                break
            if (ta - ha) % n == 0:
                continue  # exponent pairs coincide, retry from a fresh start
            d = ((hb - tb) * pow(ta - ha, -1, n)) % n
            cand = _element(d, n)
            best_guess = cand
            try:
                if oracle.inner(cand) == challenge:
                    return cand
            except ContractViolation:
                break
        return best_guess


# ---------------------------------------------------------------------------
# Endpoint-table chains (adaptive, preprocessing)
# ---------------------------------------------------------------------------


class ChainPreprocessingDlog(Attack, AdaptiveAdversary):
    """Random-walk chains stored by endpoint; online walk from the challenge.

    Preprocessing walks ``chains`` chains of ``length`` steps in
    exponent space, with the step size a keyed function of the current
    encoding, and stores (endpoint encoding, endpoint exponent) pairs.
    Online, the same walk is driven through outer queries starting from
    sigma(d); hitting a stored endpoint reveals d exactly (encodings are
    injective), so success is limited only by coverage and the budget.
    S sizes the endpoint table, ``chains = S // (2 * ceil(log2 n))``, and
    t is the chain length as well as the budget.
    """

    name = "chains"
    games = frozenset({GameKind.DLOG})

    def __init__(self, game: PCGame, t: int, s_bits: Optional[int] = None, seed: int = 0):
        n = self.n = self._game_size(game)
        if s_bits is None:
            raise ValidationError("chains attack needs s_bits to size the endpoint table")
        if t < 1:
            raise ValidationError("chain length t must be positive")
        self.width = _field_width(n)
        self.chains = s_bits // (2 * self.width)
        if self.chains < 1:
            raise ValidationError("s_bits too small for a single chain endpoint")
        self.length = t
        self.walk_key = mix64(0xC4A1, seed)
        starts = [mix64(self.walk_key, 0x5747, c) % n for c in range(self.chains)]
        self._start_slots = (np.array(starts, dtype=np.int64) - 1) % n
        super().__init__(s_bits, t, required=self.chains * 2 * self.width)

    def _step_size(self, encoding: int) -> int:
        return 1 + mix64(self.walk_key, encoding) % (self.n - 1)

    def preprocess(self, sigma: np.ndarray) -> str:
        # every chain advances one step per iteration on one batched sigma
        # read; the step is _step_size, as mix64(walk_key, e) = splitmix64(K ^ e).
        # K is mixed once here: mix64_array would mix it again every step.
        # The walk tracks slots, slot = exponent - 1 mod n.
        n, modulus = self.n, np.uint64(self.n - 1)
        key = np.uint64(splitmix64(self.walk_key))
        path = np.empty((self.chains, self.length + 1), dtype=np.int64)
        path[:, 0] = slot = self._start_slots
        for i in range(1, self.length + 1):
            enc = sigma.take(slot).view(np.uint64)
            slot = (slot + 1 + (splitmix64_array(key ^ enc) % modulus).astype(np.int64)) % n
            path[:, i] = slot
        # chains that reach an exponent an earlier chain visited, at any
        # offset, follow its walk from there and shrink coverage; reported
        # for diagnostics, not fatal. Sorted by (slot, chain), the visits of
        # one slot come chain by chain, so a chain is merged where its visit
        # follows another chain's visit of the same slot.
        visits = np.sort((path * self.chains + np.arange(self.chains)[:, None]).ravel())
        visited, chain = np.divmod(visits, self.chains)
        follows = (visited[1:] == visited[:-1]) & (chain[1:] != chain[:-1])
        self.last_endpoint_collisions = len(np.unique(chain[1:][follows]))
        endpoints = np.stack([sigma.take(slot) - 1, (slot + 1) % n], axis=1)
        return bits_encode_array(endpoints, self.width)

    def run(self, z: str, oracle):
        n = self.n
        endpoints = _encoding_table(z, self.width)
        offset = 0
        y = oracle.outer((1, n))  # sigma(d)
        while True:
            hit = endpoints.get(y)
            if hit is not None:
                return _element(hit - offset, n)
            if oracle.remaining < 1:
                return n
            offset = (offset + self._step_size(y)) % n
            y = oracle.outer((1, _element(offset, n)))


# ---------------------------------------------------------------------------
# XOR-difference table key recovery (non-adaptive, XOR cipher)
# ---------------------------------------------------------------------------


class DaemenEmAdversary(Attack, NonAdaptiveAdversary):
    """Difference-table attack recovering (k1, k2) from chosen plaintexts.

    Preprocessing stores sigma on X and X^alpha for X = [0, t1/2) (bit
    patterns), t1 * ceil(log2 n) advice bits in total; the XOR table
    delta = sigma(x) ^ sigma(x^alpha) is reconstructed from it. Online
    queries come in quadruples {m, m^alpha, m^1, m^(alpha^1)} so that a
    difference match EM(m)^EM(m^alpha) = delta_x can be validated, and
    the k1 ambiguity (x vs x^alpha orientation) resolved, against the
    partner answer EM(m^1) predicted from the stored values. A validated
    match yields k1 = m^x (or m^x^alpha) and k2 = EM(m)^sigma(x^k1^m).

    The table size t1 balances t1 * t2 = 4n for t2 = t where it can,
    holds at most S / ceil(log2 n) points when S is given, and is rounded
    down to a power of two >= 8 so that X is closed under ^1. alpha = t1/2
    makes the covered k1 set tile [0, t1*t2/4).
    """

    name = "daemen"
    games = frozenset({GameKind.EM_KR})
    beta = 1

    def __init__(self, game: PCGame, t: int, s_bits: Optional[int] = None, seed: int = 0):
        n = self.n = self._game_size(game)
        if t < 4 or t % 4 != 0:
            raise ValidationError("outer budget must be a positive multiple of 4")
        self.width = _field_width(n)
        # t1 * t = 4n where it can, and no more points than S holds
        fits = n if s_bits is None else s_bits // self.width
        raw = max(8, min(n, 4 * n // t, fits))
        self.t1 = 1 << (raw.bit_length() - 1)
        if self.t1 > n:
            raise ValidationError("table budget exceeds the domain")
        half = self.alpha = self.t1 // 2
        self.t2 = t
        self.stored = list(range(half)) + [x ^ half for x in range(half)]
        super().__init__(s_bits, t, required=self.t1 * self.width)
        self.queries = [
            q + 1
            for mb in ((r * self.t1) % n for r in range(t // 4))
            for q in (mb, mb ^ half, mb ^ self.beta, mb ^ half ^ self.beta)
        ]

    def preprocess(self, sigma: np.ndarray) -> str:
        return bits_encode_array(sigma.take(self.stored) - 1, self.width)

    def decide(self, z: str, inner_answers, outer_answers):
        val = dict(zip(self.stored, bits_decode_array(z, self.width).tolist()))
        half = self.t1 // 2
        table: dict = {}
        for x in range(half):
            table.setdefault(val[x] ^ val[x ^ self.alpha], []).append(x)
        answers = [a - 1 for a in outer_answers]  # bit patterns
        for base_idx in range(0, len(answers), 4):
            e0, e1, e2, e3 = answers[base_idx : base_idx + 4]
            m0 = self.queries[base_idx] - 1
            for mm, ea, eb, partner in ((m0, e0, e1, e2), (m0 ^ self.beta, e2, e3, e0)):
                for x in table.get(ea ^ eb, ()):
                    for x_here, x_partner in ((x, x ^ self.beta), (x ^ self.alpha, x ^ self.alpha ^ self.beta)):
                        k1 = mm ^ x_here
                        k2 = ea ^ val[x_here]
                        if k2 ^ val[x_partner] == partner:
                            return (k1 + 1, k2 + 1)
        return (1, 1)


# ---------------------------------------------------------------------------
# Majority-advice distinguisher (non-adaptive, squared decision game)
# ---------------------------------------------------------------------------


class SqddhMajorityAdversary(Attack, NonAdaptiveAdversary):
    """Advice = one majority bit per hash bucket of the rare marked pairs.

    Preprocessing enumerates all value pairs (sigma(x), sigma(x^2)),
    keeps those a keyed predicate marks at rate 1/t, buckets them by a
    keyed hash into ``buckets`` cells and stores the majority of a
    balanced keyed bit per cell. Online, t/2 non-adaptive query pairs
    walk (d1*f(i), d2*f(i)^2); on the squared side the walk stays inside
    the marked-pair table, so the first marked response pair's balanced
    bit agrees with its bucket majority noticeably more often than a
    coin, while on the random side it is independent of the advice.

    S is the bucket count (one advice bit per bucket; 8 when S is not
    given), so the advice bound and the table size move together.
    """

    name = "sqddh-majority"
    games = frozenset({GameKind.SQDDH})

    def __init__(self, game: PCGame, t: int, s_bits: Optional[int] = None, seed: int = 0):
        n = self.n = self._game_size(game)
        if t < 2 or t % 2 != 0:
            raise ValidationError("query budget must be a positive even number")
        self.buckets = 8 if s_bits is None else s_bits
        if self.buckets < 1:
            raise ValidationError("bucket count s_bits must be positive")
        super().__init__(s_bits, t, required=self.buckets)
        self.t = t
        self.key_mark = mix64(0x50, seed)
        self.key_bit = mix64(0x51, seed)
        self.key_bucket = mix64(0x52, seed)
        self.key_walk = mix64(0x53, seed)
        self.key_guess = mix64(0x54, seed)
        x = np.arange(n, dtype=np.int64)
        self._pair_slots = (x - 1) % n, (x * x % n - 1) % n  # slots of (x, x^2)
        self.queries = []
        for i in range(self.t // 2):
            f = 1 if i == 0 else 1 + mix64(self.key_walk, i) % (n - 1)
            self.queries.append((f, n, n))  # a1*d1 with a1 = f
            self.queries.append((n, (f * f) % n, n))  # a2*(d2 or d1^2) with a2 = f^2

    def preprocess(self, sigma: np.ndarray) -> str:
        n = self.n
        w1, w2 = (sigma.take(slots) for slots in self._pair_slots)
        code = (w1 * n + w2 - (n + 1)).view(np.uint64)  # (w1 - 1) * n + (w2 - 1)
        h, t = mix64_array(self.key_mark, code), np.uint64(self.t)
        code_m = code[h == h // t * t]  # marked: h % t == 0
        bucket = (mix64_array(self.key_bucket, code_m) % np.uint64(self.buckets)).astype(np.int64)
        qbit = (mix64_array(self.key_bit, code_m) & np.uint64(1)).astype(np.float64)
        ones = np.bincount(bucket, weights=qbit, minlength=self.buckets)
        counts = np.bincount(bucket, minlength=self.buckets)
        return bits_encode_array(2 * ones >= counts, 1)  # ties and empty cells read 1

    def decide(self, z: str, inner_answers, outer_answers):
        for i in range(0, len(outer_answers), 2):
            code = (outer_answers[i] - 1) * self.n + outer_answers[i + 1] - 1
            if mix64(self.key_mark, code) % self.t == 0:
                bucket = mix64(self.key_bucket, code) % self.buckets
                bit = mix64(self.key_bit, code) & 1
                return int(bit == int(z[bucket]))
        return mix64(self.key_guess, *outer_answers) & 1


# ---------------------------------------------------------------------------
# Constant-output baseline
# ---------------------------------------------------------------------------


class ConstantGuessAdversary(Attack, NonAdaptiveAdversary):
    """Zero queries, constant output; the floor every attack must beat.

    The output is the target of the game's first secret. It reads no
    advice, so S is 0 or not given."""

    name = "guess"
    games = frozenset(GameKind)

    def __init__(self, game: PCGame, t: int, s_bits: Optional[int] = None, seed: int = 0):
        super().__init__(s_bits=self._no_advice(s_bits), t_budget=t)  # it plays every game
        self.value = game.success_target(next(game.iter_secrets()))

    def decide(self, z: str, inner_answers, outer_answers):
        return self.value


# ---------------------------------------------------------------------------
# Multi-instance search game
# ---------------------------------------------------------------------------


class MultiInstanceGame(Attack):
    """The multi-instance game as an experiment: one trial is one
    ``run_mi_game(n, t, trial seed)`` run, a success when every instance
    is solved. It plays its own game and so has no ceiling; its declared
    advice is ``s_bits`` or 0. Adaptive: later secrets are derived from
    earlier answers."""

    name = "mi"
    games = frozenset({GameKind.DLOG})
    adaptive = True
    own_game = True

    def __init__(self, game: PCGame, t: int, s_bits: Optional[int] = None, seed: int = 0):
        _mi_sizes(self._game_size(game), t)  # an invalid game fails here, not when its trials run
        self.s_bits = 0 if s_bits is None else s_bits


@dataclass(frozen=True)
class MiGameResult:
    all_correct: int
    determined_fraction: float
    interval_coverage: float
    instances: int
    guessed: int
    determined: int


def _smallest_generator(n: int) -> int:
    """Smallest g of full order n-1 modulo the prime n."""
    phi = n - 1
    factors = []
    v = phi
    f = 2
    while f * f <= v:
        if v % f == 0:
            factors.append(f)
            while v % f == 0:
                v //= f
        f += 1
    if v > 1:
        factors.append(v)
    for g in range(2, n):
        if all(pow(g, phi // p, n) != 1 for p in factors):
            return g
    raise ValidationError(f"no generator found modulo {n}")


def _mi_sizes(n: int, t: int, instances: Optional[int] = None, guess_count: Optional[int] = None):
    """The checked instance and guess counts of a multi-instance game."""
    DlogGame(n)  # the game checks that n is prime
    if t < 2 or t % 2 != 0:
        raise ValidationError("per-instance budget must be a positive even number")
    if t >= n:
        raise ValidationError("per-instance budget must be below the group size")
    instances = 4 * math.ceil(n / (t * t)) if instances is None else instances
    instances = nonnegative_int(instances, "run_mi_game: instances")
    guess_count = math.ceil(4 * n / (t * t)) if guess_count is None else guess_count
    guess_count = min(nonnegative_int(guess_count, "run_mi_game: guess count"), instances)
    if instances < 1:
        raise ValidationError("need at least one instance")
    return instances, guess_count


def run_mi_game(
    n: int,
    t: int,
    seed: int,
    instances: Optional[int] = None,
    guess_count: Optional[int] = None,
    forced_correct: bool = False,
) -> MiGameResult:
    """One multi-instance run: guess the first few secrets, derive the rest.

    A fixed permutation hides the group; every instance gets a fresh
    uniform secret and the same non-adaptive query coefficients
    a_i = g^-i (i <= t/2) and a_i = g^((i - t/2) * t) (i > t/2). Output
    collisions across instances reveal linear relations between secrets,
    so any instance colliding with an already-known one is *determined*
    rather than guessed. ``forced_correct`` pins the guesses to the true
    secrets to isolate the determination mechanism, whose rate over the
    post-guess instances is reported along with the fraction of cyclic
    exponent windows of length t/2 containing at least one query.
    """
    instances, guess_count = _mi_sizes(n, t, instances, guess_count)
    rng = seeded_generator(seed, "run_mi_game")
    # one permutation fixed across instances, independent uniform secrets
    sigma = random_sigma(rng, n)
    secrets = [int(rng.integers(0, n)) for _ in range(instances)]
    first_seen: dict = {}  # sigma output -> (instance, query index) that first produced it
    g = _smallest_generator(n)
    g_inv = pow(g, -1, n)
    coeff = [pow(g_inv, j, n) for j in range(1, t // 2 + 1)]
    coeff += [pow(g, (j - t // 2) * t, n) for j in range(t // 2 + 1, t + 1)]
    coeff_exp = [(-j) % (n - 1) for j in range(1, t // 2 + 1)]
    coeff_exp += [((j - t // 2) * t) % (n - 1) for j in range(t // 2 + 1, t + 1)]

    dlog = np.full(n, -1, dtype=np.int64)
    acc = 1
    for e in range(n - 1):
        dlog[acc] = e
        acc = (acc * g) % n

    believed: dict = {}  # instance -> residue the solver uses for derivations
    exponents = []
    all_correct = True
    determined = 0

    for inst in range(instances):
        d = secrets[inst]  # residue; 0 is the element n
        answers = []
        points = []
        for a in coeff:
            u = (a * d) % n
            points.append(u)
            answers.append(int(sigma[(u - 1) % n]))  # the slot of residue u
        if d != 0:
            base = int(dlog[d])
            exponents.extend((base + e) % (n - 1) for e in coeff_exp)

        derived: Optional[int] = None
        if len(set(points)) < len(points):
            derived = 0  # distinct nonzero coefficients can only collide at 0
        else:
            for j, v in enumerate(answers):
                owner = first_seen.get(v)
                if owner is not None and owner[0] in believed:
                    i_prev, j_prev = owner
                    derived = (coeff[j_prev] * believed[i_prev] * pow(coeff[j], -1, n)) % n
                    break

        if inst < guess_count:
            solved = d if forced_correct else int(rng.integers(0, n))
        elif derived is not None:
            solved = derived
            determined += 1
        else:
            solved = int(rng.integers(0, n))

        believed[inst] = solved
        if solved != d:
            all_correct = False
        for j, v in enumerate(answers):
            first_seen.setdefault(v, (inst, j))

    post = instances - guess_count
    determined_fraction = determined / post if post > 0 else 0.0

    window = t // 2
    if exponents:
        uniq = np.unique(np.array(exponents, dtype=np.int64))
        gaps = np.diff(np.concatenate([uniq, [uniq[0] + n - 1]]))
        uncovered = int(np.maximum(gaps - window, 0).sum())
        coverage = 1.0 - uncovered / (n - 1)
    else:
        coverage = 0.0

    return MiGameResult(
        all_correct=int(all_correct),
        determined_fraction=determined_fraction,
        interval_coverage=coverage,
        instances=instances,
        guessed=guess_count,
        determined=determined,
    )


ATTACKS = {
    cls.name: cls
    for cls in (BsgsAdversary, PollardRhoAdversary, ChainPreprocessingDlog, DaemenEmAdversary,
                SqddhMajorityAdversary, ConstantGuessAdversary, MultiInstanceGame)
}

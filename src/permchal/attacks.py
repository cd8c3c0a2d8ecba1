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
by name (see ``Attack``).

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
    is_power_of_two,
    is_prime,
    random_sigma,
)
from .seeding import mix64, mix64_array, seeded_generator, splitmix64, splitmix64_array


@dataclass(frozen=True)
class AttackConfig:
    """Shared attack parameterization; attack-specific fields are optional.

    ``s_bits`` may be omitted, in which case each attack declares the
    exact advice length its encoding needs.
    """

    n: int
    t_budget: int = 0
    s_bits: Optional[int] = None
    seed: int = 0
    # attack-specific knobs
    m: Optional[int] = None  # baby-step giant-step table width
    table_budget: Optional[int] = None  # XOR-difference attack t1
    alpha: Optional[int] = None  # XOR-difference offset (bit pattern, nonzero)
    chains: Optional[int] = None  # endpoint-table walk count
    chain_length: Optional[int] = None
    buckets: Optional[int] = None  # majority-advice bucket count
    instances: Optional[int] = None  # multi-instance game length
    guess_count: Optional[int] = None
    forced_correct: bool = False


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


def _config(spec, **knobs) -> AttackConfig:
    """An experiment spec's n, budget t, advice bound and master seed, plus knobs."""
    base = dict(n=spec.n, t_budget=spec.t, s_bits=spec.s_bits, seed=spec.master_seed)
    return AttackConfig(**{**base, **knobs})


class Attack:
    """What the harness knows about an attack, declared on its class.

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
    def from_spec(cls, spec, game: PCGame, trial_seed: int):
        """The attack for one experiment spec, held to the spec's budget t."""
        return cls(_config(spec))


# ---------------------------------------------------------------------------
# Baby-step giant-step (non-adaptive, hidden-exponent search)
# ---------------------------------------------------------------------------


class BsgsAdversary(Attack, NonAdaptiveAdversary):
    """Table of sigma on 0..m-1 as advice; m stride-m outer queries online.

    Advice encodes the table sorted by sigma value, 2*ceil(log2 n) bits
    per entry. Outer query i asks for sigma(d + i*m); a table hit at
    row j solves d = j - i*m mod n. With m = ceil(sqrt(n)) and m^2 >= n
    every secret is covered and the attack always succeeds.
    """

    name = "bsgs"
    games = frozenset({GameKind.DLOG})

    @classmethod
    def from_spec(cls, spec, game, trial_seed):
        return cls(_config(spec, m=spec.t))

    def __init__(self, cfg: AttackConfig):
        if not is_prime(cfg.n):
            raise ValidationError("baby-step giant-step needs a prime group size")
        self.n = cfg.n
        self.m = cfg.m if cfg.m is not None else math.isqrt(cfg.n - 1) + 1
        if not (1 <= self.m <= cfg.n):
            raise ValidationError("table width m out of range")
        self.width = _field_width(cfg.n)
        super().__init__(cfg.s_bits, cfg.t_budget, required=self.m * 2 * self.width)
        self.queries = [(1, _element(i * self.m, self.n)) for i in range(self.m)]
        self._table_slots = (np.arange(self.m) - 1) % self.n

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
    start, bounded by the query budget.
    """

    name = "rho"
    games = frozenset({GameKind.DLOG})
    reseeded = True

    @classmethod
    def from_spec(cls, spec, game, trial_seed):
        return cls(_config(spec, seed=trial_seed))

    def __init__(self, cfg: AttackConfig):
        if not is_prime(cfg.n):
            raise ValidationError("cycle-finding search needs a prime group size")
        if cfg.t_budget < 4:
            raise ValidationError("query budget too small")
        super().__init__(s_bits=0, t_budget=cfg.t_budget)
        self.n = cfg.n
        self.seed = cfg.seed

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
        while oracle.remaining is None or oracle.remaining >= 4:
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

    Preprocessing walks ``chains`` chains of ``chain_length`` steps in
    exponent space, with the step size a keyed function of the current
    encoding, and stores (endpoint encoding, endpoint exponent) pairs.
    Online, the same walk is driven through outer queries starting from
    sigma(d); hitting a stored endpoint reveals d exactly (encodings are
    injective), so success is limited only by coverage and the budget.
    From a spec, ``s_bits`` sizes the endpoint table and t is the chain
    length as well as the budget.
    """

    name = "chains"
    games = frozenset({GameKind.DLOG})

    @classmethod
    def from_spec(cls, spec, game, trial_seed):
        if spec.s_bits is None:
            raise ValidationError("chains attack needs --s-bits to size the endpoint table")
        chains = spec.s_bits // (2 * _field_width(spec.n))
        if chains < 1:
            raise ValidationError("s_bits too small for a single chain endpoint")
        return cls(_config(spec, chains=chains, chain_length=spec.t))

    def __init__(self, cfg: AttackConfig):
        if not is_prime(cfg.n):
            raise ValidationError("chain preprocessing needs a prime group size")
        chains = cfg.chains if cfg.chains is not None else 1
        length = cfg.chain_length if cfg.chain_length is not None else max(1, cfg.t_budget)
        if chains < 1 or length < 1 or cfg.t_budget < 0:
            raise ValidationError("chains and chain length must be positive, budget non-negative")
        self.n = cfg.n
        self.chains = chains
        self.length = length
        self.width = _field_width(cfg.n)
        self.walk_key = mix64(0xC4A1, cfg.seed)
        starts = [mix64(self.walk_key, 0x5747, c) % cfg.n for c in range(chains)]
        self._start_slots = (np.array(starts, dtype=np.int64) - 1) % cfg.n
        super().__init__(cfg.s_bits, cfg.t_budget, required=chains * 2 * self.width)

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
        if oracle.remaining is not None and oracle.remaining < 1:
            return n  # no budget even for the challenge: bare guess
        endpoints = _encoding_table(z, self.width)
        offset = 0
        y = oracle.outer((1, n))  # sigma(d)
        while True:
            hit = endpoints.get(y)
            if hit is not None:
                return _element(hit - offset, n)
            if oracle.remaining is not None and oracle.remaining < 1:
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

    Requires t1/2 a power of two >= 4 so X is closed under ^1; alpha
    defaults to t1/2, which makes the covered k1 set tile [0, t1*t2/4).
    """

    name = "daemen"
    games = frozenset({GameKind.EM_KR})

    def __init__(self, cfg: AttackConfig):
        if not is_power_of_two(cfg.n):
            raise ValidationError("difference-table attack needs a power-of-two domain")
        self.n = cfg.n
        t2 = cfg.t_budget
        if t2 < 4 or t2 % 4 != 0:
            raise ValidationError("outer budget must be a positive multiple of 4")
        if cfg.table_budget is not None:
            self.t1 = cfg.table_budget
        else:
            # balanced default: t1 * t2 = 4n when possible, rounded down to 2^j
            raw = max(8, min(cfg.n, 4 * cfg.n // t2))
            self.t1 = 1 << (raw.bit_length() - 1)
        half = self.t1 // 2
        if self.t1 < 8 or half & (half - 1):
            raise ValidationError("table budget t1 must satisfy t1/2 a power of two >= 4")
        if self.t1 > cfg.n:
            raise ValidationError("table budget exceeds the domain")
        alpha = cfg.alpha if cfg.alpha is not None else half
        if not (1 <= alpha <= cfg.n - 1):
            raise ValidationError("alpha must be a nonzero bit pattern")
        if alpha < half:
            raise ValidationError("alpha must lie outside the table block [0, t1/2)")
        self.alpha = alpha
        self.beta = 1
        self.t2 = t2
        self.width = _field_width(cfg.n)
        self.stored = list(range(half)) + [x ^ alpha for x in range(half)]
        super().__init__(cfg.s_bits, cfg.t_budget, required=len(self.stored) * self.width)
        bases = [(r * self.t1) % cfg.n for r in range(t2 // 4)]
        self.queries = []
        for mb in bases:
            for q in (mb, mb ^ alpha, mb ^ self.beta, mb ^ alpha ^ self.beta):
                self.queries.append(q + 1)

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

    From a spec, ``s_bits`` is read as the bucket count (one advice bit
    per bucket), so the advice bound and the table size move together.
    """

    name = "sqddh-majority"
    games = frozenset({GameKind.SQDDH})

    @classmethod
    def from_spec(cls, spec, game, trial_seed):
        return cls(_config(spec, buckets=spec.s_bits))

    def __init__(self, cfg: AttackConfig):
        if not is_prime(cfg.n):
            raise ValidationError("majority-advice distinguisher needs a prime group size")
        if cfg.t_budget < 2 or cfg.t_budget % 2 != 0:
            raise ValidationError("query budget must be a positive even number")
        buckets = cfg.buckets if cfg.buckets is not None else 8
        if buckets < 1:
            raise ValidationError("bucket count must be positive")
        super().__init__(cfg.s_bits, cfg.t_budget, required=buckets)
        self.n = cfg.n
        self.t = cfg.t_budget
        self.buckets = buckets
        self.key_mark = mix64(0x50, cfg.seed)
        self.key_bit = mix64(0x51, cfg.seed)
        self.key_bucket = mix64(0x52, cfg.seed)
        self.key_walk = mix64(0x53, cfg.seed)
        self.key_guess = mix64(0x54, cfg.seed)
        n = cfg.n
        x = np.arange(n, dtype=np.int64)
        self._pair_slots = (x - 1) % n, (x * x % n - 1) % n  # slots of (x, x^2)
        self.queries = []
        for i in range(self.t // 2):
            f = 1 if i == 0 else 1 + mix64(self.key_walk, i) % (n - 1)
            self.queries.append((f, n, n))  # a1*d1 with a1 = f
            self.queries.append((n, (f * f) % n, n))  # a2*(d2 or d1^2) with a2 = f^2

    def _pair_code(self, w1, w2):
        return (np.asarray(w1, dtype=np.uint64) - 1) * np.uint64(self.n) + (
            np.asarray(w2, dtype=np.uint64) - 1
        )

    def preprocess(self, sigma: np.ndarray) -> str:
        code = self._pair_code(*(sigma.take(slots) for slots in self._pair_slots))
        marked = mix64_array(self.key_mark, code) % np.uint64(self.t) == 0
        code_m = code[marked]
        bucket = (mix64_array(self.key_bucket, code_m) % np.uint64(self.buckets)).astype(np.int64)
        qbit = (mix64_array(self.key_bit, code_m) & np.uint64(1)).astype(np.float64)
        ones = np.bincount(bucket, weights=qbit, minlength=self.buckets)
        counts = np.bincount(bucket, minlength=self.buckets)
        return bits_encode_array(2 * ones >= counts, 1)  # ties and empty cells read 1

    def decide(self, z: str, inner_answers, outer_answers):
        for i in range(0, len(outer_answers), 2):
            w1, w2 = outer_answers[i], outer_answers[i + 1]
            code = int(self._pair_code(w1, w2))
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

    The output is the target of the game's first secret."""

    name = "guess"
    games = frozenset(GameKind)

    @classmethod
    def from_spec(cls, spec, game, trial_seed):
        return cls(game, t_budget=spec.t)

    def __init__(self, game: PCGame, t_budget: Optional[int] = None):
        super().__init__(s_bits=0, t_budget=t_budget)
        self.value = game.success_target(next(game.iter_secrets()))

    def decide(self, z: str, inner_answers, outer_answers):
        return self.value


# ---------------------------------------------------------------------------
# Multi-instance search game
# ---------------------------------------------------------------------------


class MultiInstanceGame(Attack):
    """The multi-instance game as an experiment: one trial is one
    ``run_mi_game`` run, a success when every instance is solved. It plays
    its own game and so has no ceiling; its declared advice is ``s_bits``
    or 0. Adaptive: later secrets are derived from earlier answers."""

    name = "mi"
    games = frozenset({GameKind.DLOG})
    adaptive = True
    own_game = True

    def __init__(self, cfg: AttackConfig):
        self.cfg = cfg
        self.s_bits = cfg.s_bits if cfg.s_bits is not None else 0


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


def run_mi_game(cfg: AttackConfig, seed: Optional[int] = None) -> MiGameResult:
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
    n, t = cfg.n, cfg.t_budget
    if not is_prime(n):
        raise ValidationError("multi-instance game needs a prime group size")
    if t < 2 or t % 2 != 0:
        raise ValidationError("per-instance budget must be a positive even number")
    if t >= n:
        raise ValidationError("per-instance budget must be below the group size")
    instances = cfg.instances if cfg.instances is not None else 4 * math.ceil(n / (t * t))
    guess_count = (
        cfg.guess_count if cfg.guess_count is not None else math.ceil(4 * n / (t * t))
    )
    guess_count = min(nonnegative_int(guess_count, "run_mi_game: guess count"), instances)
    if instances < 1:
        raise ValidationError("need at least one instance")

    rng = seeded_generator(seed if seed is not None else cfg.seed, "run_mi_game")
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
            solved = d if cfg.forced_correct else int(rng.integers(0, n))
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

bsgs_adversary = BsgsAdversary
pollard_rho_adversary = PollardRhoAdversary
chain_preprocessing_dlog = ChainPreprocessingDlog
daemen_em_adversary = DaemenEmAdversary
sqddh_nonadaptive_adversary = SqddhMajorityAdversary
constant_guess_adversary = ConstantGuessAdversary

"""Deterministic seed derivation and keyed integer mixing.

Everything randomized in this package flows through explicit 64-bit
seeds. Trial streams are derived with a splitmix64-style avalanche so
that results are independent of execution order and worker count, and
the same mixer doubles as the keyed "pseudorandom predicate" primitive
used by attacks (scalar and numpy-array forms).

``trial_generator(master, i)`` is the reference for one trial's stream:
PCG64 seeded with ``derive_trial_seed(master, i)``. ``trial_generators``
derives a chunk of trials at once and gives the same streams: it runs
NumPy's SeedSequence hash vectorised over the chunk's trial seeds and
hands each PCG64 its four precomputed state words. A chunk of at most
four trials takes ``trial_generator`` per trial instead, which is faster
there than the vectorised hash's fixed cost.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import nonnegative_int

_MASK64 = (1 << 64) - 1
_SCALAR_CHUNK = 4  # the largest chunk that takes trial_generator per trial
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 finalization round; a bijection on 64-bit ints."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Derive the 64-bit RNG seed for one trial.

    Injective in ``trial_index`` for a fixed master seed (the index is
    multiplied by an odd constant, XORed into the master and passed
    through a bijective mixer), so distinct trials never share a stream.
    """
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    basis = (master_seed & _MASK64) ^ ((trial_index * _GOLDEN) & _MASK64)
    return splitmix64(basis)


def seeded_generator(seed, where: str) -> np.random.Generator:
    """PCG64 generator for a caller's seed, which must be a non-negative integer."""
    return np.random.Generator(np.random.PCG64(nonnegative_int(seed, f"{where}: seed")))


def trial_generator(master_seed: int, trial_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_trial_seed(master_seed, trial_index)))


def trial_generators(master_seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """``trial_generator(master_seed, i)`` for ``lo <= i < hi``, in order: the
    same streams, with the seed hash run once over the chunk."""
    if not 0 <= lo <= hi:
        raise ValueError("trial_generators: need 0 <= lo <= hi")
    if hi - lo <= _SCALAR_CHUNK:
        return (trial_generator(master_seed, i) for i in range(lo, hi))
    index = np.arange(lo, hi, dtype=np.uint64)  # derive_trial_seed of each index:
    seeds = splitmix64_array(np.array(master_seed & _MASK64, dtype=np.uint64) ^ index * _GOLDEN_U64)
    return (np.random.Generator(np.random.PCG64(_StateWords(words)))
            for words in _pcg64_state_words(seeds))


# NumPy's SeedSequence (numpy/random/bit_generator.pyx) with its default pool
# of four uint32 words. A trial seed below 2**64 is the entropy [low, high]
# and is zero-padded to the pool. hashmix call k XORs with _HASH_A[k] and
# multiplies by _HASH_A[k + 1]: calls 0-3 fill the pool, calls 4-15 mix it.
# Output word i is the pool word i % 4 hashed with _HASH_B[i], _HASH_B[i + 1].
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _SHIFT16 = (np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    h = (values ^ xor) * mult
    return h ^ (h >> _SHIFT16)


# Pool words 2 and 3 hash the zero padding, whatever the seed.
_POOL_PADDING = _hashmix(np.zeros((2, 1), dtype=np.uint32), _HASH_A[2:4], _HASH_A[3:5])


def _round_constants(s: int) -> tuple:
    """The hashmix constants of mixing round s, which updates every pool word
    d != s with the hashmix of word s, one call per d in ascending order.
    ``_pcg64_state_words`` keeps those three words contiguous, in the order
    s+1, s+2, s+3 (mod 4), so the constants are listed in that order."""
    ascending = [d for d in range(4) if d != s]
    calls = [4 + 3 * s + ascending.index((s + k) % 4) for k in (1, 2, 3)]
    return _HASH_A[calls], _HASH_A[[c + 1 for c in calls]]


_ROUND_CONSTANTS = [_round_constants(s) for s in range(4)]
_OUTPUT_ROWS = np.array([4, 5, 6, 3] * 2)  # pool words 0, 1, 2, 3 after the last round


def _pcg64_state_words(seeds: np.ndarray) -> np.ndarray:
    """Row i is ``SeedSequence(seeds[i]).generate_state(4, np.uint64)``, the
    state words of ``PCG64(seeds[i])``, for a one-dimensional uint64 array."""
    entropy = seeds.astype("<u8", copy=False).view("<u4").reshape(-1, 2).T  # low, high words
    # Row r holds pool word r % 4, so round s reads word s from row s and
    # rewrites words s+1..s+3 as the contiguous rows s+1..s+3. A word is
    # copied up to row r + 4 before a round uses it there: word 0 before
    # round 1, words 1 and 2 (final since rounds 0 and 1) before round 2.
    pool = np.empty((7, len(seeds)), dtype=np.uint32)
    pool[0:2] = _hashmix(entropy, _HASH_A[0:2], _HASH_A[1:3])
    pool[2:4] = _POOL_PADDING
    pool[4] = pool[0]
    for s, (xor, mult) in enumerate(_ROUND_CONSTANTS):
        mixed = pool[s + 1 : s + 4] * _MIX_L - _hashmix(pool[s], xor, mult) * _MIX_R
        np.bitwise_xor(mixed, mixed >> _SHIFT16, out=pool[s + 1 : s + 4])
        if s == 1:
            pool[5:7] = pool[1:3]
    state = _hashmix(pool.take(_OUTPUT_ROWS, axis=0), _HASH_B[:-1], _HASH_B[1:])
    # consecutive uint32 pairs are the little-endian halves of one uint64
    return np.ascontiguousarray(state.T).view("<u8").astype(np.uint64, copy=False)


class _StateWords(ISeedSequence):
    """The seed sequence of one PCG64 whose state words are already known."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint64) -> np.ndarray:
        return self.words  # PCG64 asks for its 4 uint64 words once, when built


def mix64(key: int, *values: int) -> int:
    """Keyed avalanche over a tuple of ints (scalar form)."""
    acc = splitmix64(key & _MASK64)
    for v in values:
        acc = splitmix64((acc ^ (v & _MASK64)) & _MASK64)
    return acc


def mix64_array(key: int, *columns: np.ndarray) -> np.ndarray:
    """Keyed avalanche applied elementwise to aligned integer columns.

    The columns are arrays of at least one dimension, whose uint64
    arithmetic wraps without an overflow warning."""
    acc = np.uint64(splitmix64(key & _MASK64))
    for col in columns:
        acc = splitmix64_array(acc ^ col.astype(np.uint64, copy=False))
    return acc


# 0-d arrays, not numpy scalars: the ufuncs take them faster, and a numpy
# scalar argument wraps without an overflow warning
_SPLITMIX_U64 = tuple(
    np.array(c, dtype=np.uint64) for c in (_GOLDEN, 30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)
)
_GOLDEN_U64 = _SPLITMIX_U64[0]


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """``splitmix64`` elementwise on a uint64 array or numpy scalar."""
    golden, s1, m1, s2, m2, s3 = _SPLITMIX_U64
    z = x + golden
    z = (z ^ (z >> s1)) * m1
    z = (z ^ (z >> s2)) * m2
    return z ^ (z >> s3)

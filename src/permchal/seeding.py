"""Deterministic seed derivation and keyed integer mixing.

Everything randomized in this package flows through explicit 64-bit
seeds. Trial streams are derived with a splitmix64-style avalanche so
that results are independent of execution order and worker count, and
the same mixer doubles as the keyed "pseudorandom predicate" primitive
used by attacks (scalar and numpy-array forms).
"""

from __future__ import annotations

import numpy as np

from .errors import nonnegative_int

_MASK64 = (1 << 64) - 1
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


def mix64(key: int, *values: int) -> int:
    """Keyed avalanche over a tuple of ints (scalar form)."""
    acc = splitmix64(key & _MASK64)
    for v in values:
        acc = splitmix64((acc ^ (v & _MASK64)) & _MASK64)
    return acc


def mix64_array(key: int, *columns: np.ndarray) -> np.ndarray:
    """Keyed avalanche applied elementwise to aligned uint64 columns."""
    acc = np.uint64(splitmix64(key & _MASK64))
    with np.errstate(over="ignore"):
        for col in columns:
            acc = splitmix64_array(acc ^ col.astype(np.uint64, copy=False))
    return acc


_SPLITMIX_U64 = tuple(map(np.uint64, (_GOLDEN, 30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)))


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """``splitmix64`` elementwise on a uint64 array; callers that pass numpy
    scalars silence overflow warnings with ``np.errstate(over="ignore")``."""
    golden, s1, m1, s2, m2, s3 = _SPLITMIX_U64
    z = x + golden
    z = (z ^ (z >> s1)) * m1
    z = (z ^ (z >> s2)) * m2
    return z ^ (z >> s3)

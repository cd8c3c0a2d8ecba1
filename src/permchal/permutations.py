"""Lexicographic (Lehmer code) permutation unranking and enumeration.

Ranks run from 0 to n!-1 in lexicographic order of the permutation word,
which is also the order ``itertools.permutations(range(n))`` produces.
Enumeration is capped at n <= 8 (40320 permutations) so exhaustive
computations stay fast.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError, nonnegative_int

MAX_ENUM_N = 8


def check_enum_size(n, what: str = "operation") -> int:
    """``n`` as an int in [1, MAX_ENUM_N]; numpy integers pass, floats do not."""
    n = nonnegative_int(n, f"{what}: n")
    if n < 1:
        raise ValidationError(f"{what}: n must be a positive integer")
    if n > MAX_ENUM_N:
        raise ValidationError(f"{what}: n={n} exceeds the enumeration cap {MAX_ENUM_N}")
    return n


def permutation_unrank(n: int, rank: int) -> tuple:
    """The permutation of 0..n-1 with lexicographic rank ``rank``. O(n^2)."""
    n = nonnegative_int(n, "permutation_unrank: n")
    rank = nonnegative_int(rank, "permutation_unrank: rank")
    if rank >= math.factorial(n):
        raise ValidationError(f"permutation_unrank: rank {rank} out of range for n={n}")
    available = list(range(n))
    out = []
    for i in range(n):
        f = math.factorial(n - 1 - i)
        idx, rank = divmod(rank, f)
        out.append(available.pop(idx))
    return tuple(out)


@lru_cache(maxsize=None, typed=True)  # typed: a float equal to a cached n is still checked
def permutation_matrix(n: int) -> np.ndarray:
    """All permutations of 0..n-1 as an (n!, n) int array in rank order."""
    n = check_enum_size(n, "permutation_matrix")
    mat = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    mat.setflags(write=False)
    return mat

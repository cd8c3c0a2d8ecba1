"""Closed-form success-probability ceilings for non-adaptive preprocessing
adversaries, parameterized by advice bits S, query budget T and the
translation uniformity u.

Selectors:

* T41: generic u-uniform game,
       min(2*maxS + 4*ln2*S*T/u + T^2/u,
           maxS + sqrt(ln2*S*T/u) + T^2/(2u))
* T11: search game over a prime group of size n (u = n),
       2*maxS + 4*ln2*S*T/n + T^2/n,          default maxS = T^2/n
* T12: decision game over a prime group (u = n/2),
       maxS + sqrt(2*ln2*S*T/n) + T^2/n,      default maxS = 1/2 + T^2/n
* T13: XOR-cipher key recovery (u = n),
       2*maxS + 4*ln2*S*(T+1)/n + T^2/n,      default maxS = T^2/n
* TE1: identity post-processing refinement of T41, dropping the T^2
       terms: min(2*maxS + 4*ln2*S*T/u, maxS + sqrt(ln2*S*T/u))

Each game class in ``games`` names its selector as ``theorem``: T11 for
DLOG, T12 for DDH and sqDDH, T13 for both XOR-cipher games.

maxS is the best success probability of a non-preprocessing non-adaptive
T-query algorithm; the defaults are the classical no-advice ceilings.
All values are clamped to [0, 1].
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

from .errors import ValidationError

LN2 = math.log(2.0)


class BoundTheorem(str, Enum):
    T41 = "T41"
    T11 = "T11"
    T12 = "T12"
    T13 = "T13"
    TE1 = "TE1"


def default_max_s(theorem, n: int, t: float) -> float:
    """No-preprocessing ceiling plugged in when maxS is not supplied."""
    theorem = BoundTheorem(theorem)
    if theorem in (BoundTheorem.T11, BoundTheorem.T13):
        return t * t / n
    if theorem == BoundTheorem.T12:
        return 0.5 + t * t / n
    raise ValidationError(f"{theorem.value} has no default maxS; pass one explicitly")


def evaluate_bound(
    theorem,
    n: int,
    s_bits: float,
    t: float,
    u: Optional[float] = None,
    max_s: Optional[float] = None,
) -> float:
    """Evaluate the selected ceiling; result clamped to [0, 1]."""
    theorem = BoundTheorem(theorem)
    if not all(math.isfinite(v) for v in (n, s_bits, t, u, max_s) if v is not None):
        raise ValidationError("n, s_bits, t, u and maxS must be finite")
    if n <= 0:
        raise ValidationError("n must be positive")
    if s_bits < 0 or t < 0:
        raise ValidationError("s_bits and t must be non-negative")
    if theorem in (BoundTheorem.T41, BoundTheorem.TE1):
        if u is None or u <= 0:
            raise ValidationError(f"{theorem.value} requires u > 0")
        if max_s is None:
            raise ValidationError(f"{theorem.value} requires an explicit maxS")
    else:
        u = float(n)
        if max_s is None:
            max_s = default_max_s(theorem, n, t)
    if max_s < 0:
        raise ValidationError("maxS must be non-negative")

    st_over_u = s_bits * t / u
    if theorem == BoundTheorem.T41:
        value = min(
            2.0 * max_s + 4.0 * LN2 * st_over_u + t * t / u,
            max_s + math.sqrt(LN2 * st_over_u) + t * t / (2.0 * u),
        )
    elif theorem == BoundTheorem.TE1:
        value = min(
            2.0 * max_s + 4.0 * LN2 * st_over_u,
            max_s + math.sqrt(LN2 * st_over_u),
        )
    elif theorem == BoundTheorem.T11:
        value = 2.0 * max_s + 4.0 * LN2 * s_bits * t / n + t * t / n
    elif theorem == BoundTheorem.T12:
        value = max_s + math.sqrt(2.0 * LN2 * s_bits * t / n) + t * t / n
    else:  # T13
        value = 2.0 * max_s + 4.0 * LN2 * s_bits * (t + 1.0) / n + t * t / n
    return min(1.0, max(0.0, value))


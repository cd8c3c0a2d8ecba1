"""Success-probability ceilings for non-adaptive preprocessing adversaries,
in advice bits S, query budget T and the translation uniformity u.

Each is T41's argument: advice carries at most S ln 2 nats, Shearer's lemma
spreads them over the plan's cover, and the success step finishes by
domination or by Pinsker. So T41's two branches are the only arithmetic:

    domination  2*maxS + 4*ln2*S*T'/u  (+ T^2/u)
    Pinsker     maxS + sqrt(ln2*S*T/u)  (+ T^2/(2u))

    name  branch                 u      S term   default maxS  games
    T41   min of both, with T^2  given  S*T      none          -
    TE1   min of both, no T^2    given  S*T      none          -
    T11   domination             n      S*T      T^2/n         DLOG
    T12   Pinsker                n/2    S*T      1/2 + T^2/n   DDH, sqDDH
    T13   domination             n      S*(T+1)  T^2/n         EM, EM single-key

TE1 is T41 under identity post-processing, which drops the T^2 terms.
A named theorem (T11, T12, T13) derives u from n, so it takes no u; each
game class in ``games`` names its theorem as ``theorem``. maxS is the
best success of a non-preprocessing non-adaptive T-query algorithm; the
defaults are the classical no-advice ceilings. Values are clamped to [0, 1].
"""

from __future__ import annotations

import math
import numbers
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


def _domination(max_s, s, t_prime, t, u, square: bool) -> float:
    value = 2.0 * max_s + 4.0 * LN2 * s * t_prime / u
    return value + t * t / u if square else value


def _pinsker(max_s, s, t, u, square: bool) -> float:
    value = max_s + math.sqrt(LN2 * s * t / u)
    return value + t * t / (2.0 * u) if square else value


# each theorem as a function of (maxS, S, T, u)
_CEILINGS = {
    BoundTheorem.T41: lambda m, s, t, u: min(_domination(m, s, t, t, u, True), _pinsker(m, s, t, u, True)),
    BoundTheorem.TE1: lambda m, s, t, u: min(_domination(m, s, t, t, u, False), _pinsker(m, s, t, u, False)),
    BoundTheorem.T11: lambda m, s, t, u: _domination(m, s, t, t, u, True),
    BoundTheorem.T12: lambda m, s, t, u: _pinsker(m, s, t, u, True),
    BoundTheorem.T13: lambda m, s, t, u: _domination(m, s, t + 1.0, t, u, True),
}
# a named theorem's n / u, and its default maxS less T^2/n
_NAMED = {BoundTheorem.T11: (1, 0.0), BoundTheorem.T12: (2, 0.5), BoundTheorem.T13: (1, 0.0)}


def evaluate_bound(theorem, n: int, s_bits: float, t: float,
                   u: Optional[float] = None, max_s: Optional[float] = None) -> float:
    """Evaluate the selected ceiling; result clamped to [0, 1].

    T41 and TE1 need u and maxS. A named theorem derives u from n, so a u
    is a ``ValidationError``, and maxS defaults to its no-advice ceiling.
    """
    if theorem not in tuple(BoundTheorem):
        raise ValidationError(f"unknown theorem {theorem!r}")
    theorem = BoundTheorem(theorem)
    values = [n, s_bits, t] + [v for v in (u, max_s) if v is not None]
    if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in values):
        raise ValidationError("n, s_bits, t, u and maxS must be finite numbers")
    if n <= 0:
        raise ValidationError("n must be positive")
    if s_bits < 0 or t < 0:
        raise ValidationError("s_bits and t must be non-negative")
    if theorem in _NAMED:
        if u is not None:
            raise ValidationError(f"{theorem.value} derives u from n; u is for T41 and TE1 only")
        n_over_u, offset = _NAMED[theorem]
        u = n / n_over_u
        if max_s is None:
            max_s = offset + t * t / n
    else:
        if u is None or u <= 0:
            raise ValidationError(f"{theorem.value} requires u > 0")
        if max_s is None:
            raise ValidationError(f"{theorem.value} requires an explicit maxS")
    if max_s < 0:
        raise ValidationError("maxS must be non-negative")
    return min(1.0, max(0.0, _CEILINGS[theorem](max_s, s_bits, t, u)))

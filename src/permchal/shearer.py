"""Distributions over bijections and exhaustive checks of Shearer-type bounds.

Everything here is exact (up to double precision) at small domain size:
a distribution over bijections of range(n) is stored as an explicit mass
vector over all n! permutations in Lehmer rank order, marginals are
computed by aggregating that vector, and each inequality is evaluated as
a *gap* (bound side minus dominated side) that callers assert to be
non-negative.

Coordinates are 0-based: a cover is a family of subsets of
``range(n)``, and a bijection maps coordinate ``i`` to ``perm[i]``
where ``perm`` is the rank-``r`` permutation. The verified divergences
do not change when the codomain is relabelled, so it is ``range(n)``.

The verified inequalities, with Q always uniform over its space:

* product form:    k * KL(P||Q) >= sum_j KL(P_Uj || Q_Uj)   on X^n
* bijection form:  c * k * KL(P||Q) >= sum_j KL(P_Uj || Q_Uj)
                   for c = 2 (sharp form) and c = 9 (elementary form)
* read-k form:     2k * KL(P||Q) >= m * KL(pbar || qbar)
* indicator form:  9k * KL(P||Q) >= sum_j KL(P_Uj || Q_Uj)   on unit vectors
* pooled deviation: 4 * sum_i (p_i ln(n p_i) - eps_i)
                    >= n p' ln(n p') - n eps'
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, nonnegative_int
from .infotheory import (
    FiniteDistribution,
    JointDistribution,
    MASS_TOL,
    _as_float_array,
    _as_mass_array,
    kl_bernoulli,
)
from .permutations import check_enum_size, permutation_matrix, permutation_rank
from .seeding import seeded_generator

RATIO_SEARCH_MAX_N = 6
HILL_CLIMB_STEPS = 200


@dataclass(frozen=True, eq=False)
class BijectionDistribution:
    """Probability mass over all n! bijections of range(n).

    ``mass[r]`` is the probability of the bijection whose permutation
    word has Lehmer rank ``r``.
    """

    n: int
    mass: np.ndarray

    def __post_init__(self):
        check_enum_size(self.n, "BijectionDistribution")
        arr = _as_mass_array(self.mass, "BijectionDistribution", (math.factorial(self.n),))
        object.__setattr__(self, "mass", arr)

    @classmethod
    def uniform(cls, n: int) -> "BijectionDistribution":
        f = math.factorial(n)
        return cls(n, np.full(f, 1.0 / f))

    @classmethod
    def point_mass(cls, perm: Sequence[int]) -> "BijectionDistribution":
        n = len(perm)
        mass = np.zeros(math.factorial(n))
        mass[permutation_rank(perm)] = 1.0
        return cls(n, mass)


@dataclass(frozen=True, eq=False)
class CoverFamily:
    """Subsets U_1..U_m of range(n) with max per-coordinate multiplicity k."""

    n: int
    sets: tuple
    k: int = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("CoverFamily: n must be positive")
        try:
            sets = tuple(frozenset(map(operator.index, s)) for s in self.sets)
        except TypeError:
            raise ValidationError("CoverFamily: sets must hold integer coordinates") from None
        for s in sets:
            if any(not (0 <= i < self.n) for i in s):
                raise ValidationError("CoverFamily: set element out of range(n)")
        multiplicity = [0] * self.n
        for s in sets:
            for i in s:
                multiplicity[i] += 1
        object.__setattr__(self, "k", max(multiplicity))
        object.__setattr__(self, "sets", sets)


@dataclass(frozen=True, eq=False)
class ReadKFunction:
    """One member of a read-k family: depends only on ``dependencies``.

    ``values[i]`` in [0, 1] is the value on the i-th injective assignment
    of the sorted dependencies, that is on
    ``marginal_distribution(p, dependencies).support[i]`` (``_projection``
    bin order). Values off the bijections are never queried.
    """

    dependencies: frozenset
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dependencies", frozenset(self.dependencies))
        values = _as_float_array(self.values, "ReadKFunction")
        if values.ndim != 1:
            raise ValidationError("ReadKFunction: values must be one-dimensional")
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValidationError("ReadKFunction: values must lie in [0, 1]")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class ReadKFamily:
    """Read-k functions on bijections of range(n); each holds perm(n, |deps|) values."""

    n: int
    functions: tuple
    k: int = field(init=False)

    def __post_init__(self):
        check_enum_size(self.n, "ReadKFamily")
        functions = tuple(self.functions)
        object.__setattr__(self, "k", CoverFamily(self.n, tuple(f.dependencies for f in functions)).k)
        for f in functions:
            if f.values.size != math.perm(self.n, len(f.dependencies)):
                raise ValidationError("ReadKFamily: a function needs perm(n, |dependencies|) values")
        object.__setattr__(self, "functions", functions)


@lru_cache(maxsize=None)
def _projection(n: int, coords: tuple) -> tuple:
    """Bin index per permutation rank for the marginal on ``coords``.

    Returns (inverse, count): ``inverse[r]`` is the index of the
    injective tuple realised at ``coords`` by the rank-r permutation,
    among all count = n!/(n-|coords|)! injective tuples in lexicographic
    order of coordinate indices.
    """
    mat = permutation_matrix(n)
    codes = np.zeros(mat.shape[0], dtype=np.int64)
    for c in coords:
        codes = codes * n + mat[:, c]
    uniq, inverse = np.unique(codes, return_inverse=True)
    return inverse, len(uniq)


def _injective_labels(n: int, coords: tuple) -> list:
    """Injective value tuples in the order matching _projection bins."""
    return list(itertools.permutations(range(n), len(coords)))


def _kl_vs_uniform(mass: np.ndarray, count: int) -> float:
    pos = mass[mass > 0]
    return float((pos * np.log(pos * count)).sum()) if pos.size else 0.0


def _marginal_mass(p: BijectionDistribution, coords: tuple) -> np.ndarray:
    inverse, count = _projection(p.n, coords)
    return np.bincount(inverse, weights=p.mass, minlength=count)


def marginal_distribution(p: BijectionDistribution, u: Iterable) -> FiniteDistribution:
    """Distribution of the coordinate vector (X_i for i in u), sorted-u order.

    The support enumerates *all* injective |u|-tuples of range(n)
    (zero-mass tuples included) so that divergences against the uniform
    marginal are directly computable.
    """
    coords = tuple(sorted(set(u)))
    if any(not (0 <= i < p.n) for i in coords):
        raise ValidationError("marginal_distribution: coordinate out of range(n)")
    if not coords:
        return FiniteDistribution(((),), np.array([1.0]))
    mass = _marginal_mass(p, coords)
    labels = _injective_labels(p.n, coords)
    # Aggregated masses of a valid distribution stay normalized.
    return FiniteDistribution(tuple(labels), mass)


def _cover_projections(cover: CoverFamily) -> list:
    """The cover compiled for ``_marginal_kl_sum``: its runs of equal-size marginals.

    Each run is (count, inverses): the ``_projection`` inverses of
    consecutive non-empty sets, in cover order, whose marginals all have
    ``count`` bins.
    """
    runs = []
    for s in cover.sets:
        if s:
            inverse, count = _projection(cover.n, tuple(sorted(s)))
            if runs and runs[-1][0] == count:
                runs[-1][1].append(inverse)
            else:
                runs.append((count, [inverse]))
    return runs


def _marginal_kl_sum(mass: np.ndarray, runs: list) -> float:
    """sum_j KL(marginal_j || uniform) of a rank-order mass vector.

    A fused kernel: per run of k marginals with c bins, one ``bincount``
    per set fills a (k, c) array and one ``marg * log(marg * c)`` pass
    gives all its KL terms; a singleton cover is one run. The result is
    bit-identical to adding up ``_kl_vs_uniform`` set by set, because
    the summation order is kept:

    * each set's terms are summed by numpy's pairwise sum over that
      set's bins alone: ``reshape(k, c).sum(axis=1)`` groups like the
      1-D sum of each row (``np.add.reduceat`` does not, even on 3 bins);
    * ``_kl_vs_uniform`` drops zero bins before its sum, which moves the
      pairwise grouping once a marginal has 8 or more bins. A bin is 0
      only if the mass is 0 on every permutation in it, so a mass with
      any zero entry takes the set-by-set path instead;
    * the per-set sums are added as Python floats in cover order,
      starting from 0.0.
    """
    if np.count_nonzero(mass) != mass.size:
        return sum(
            (_kl_vs_uniform(np.bincount(inverse, weights=mass, minlength=count), count)
             for count, inverses in runs for inverse in inverses),
            0.0,
        )
    sums = []
    for count, inverses in runs:
        marg = [np.bincount(inverse, weights=mass, minlength=count) for inverse in inverses]
        marg = np.concatenate(marg) if len(marg) > 1 else marg[0]
        sums += (marg * np.log(marg * count)).reshape(len(inverses), count).sum(axis=1).tolist()
    return sum(sums, 0.0)


def bijection_shearer_terms(p: BijectionDistribution, cover: CoverFamily) -> tuple:
    """(KL(P||Q), sum_j KL(P_Uj||Q_Uj)) with Q uniform over bijections."""
    if cover.n != p.n:
        raise ValidationError("cover and distribution sizes differ")
    return _kl_vs_uniform(p.mass, p.mass.size), _marginal_kl_sum(p.mass, _cover_projections(cover))


def bijection_shearer_gap(p: BijectionDistribution, cover: CoverFamily, c: float) -> float:
    """c*k*KL(P||Q) - sum_j KL(P_Uj||Q_Uj), Q uniform over bijections.

    Non-negative for c = 2, and a fortiori for c = 9.
    """
    kl_full, marginal_sum = bijection_shearer_terms(p, cover)
    return c * cover.k * kl_full - marginal_sum


def product_shearer_gap(p: JointDistribution, cover: CoverFamily) -> float:
    """k*KL(P||Q) - sum_j KL(P_Uj||Q_Uj) with Q uniform over the full product X^n."""
    n = len(p.axes)
    if cover.n != n:
        raise ValidationError("product_shearer_gap: cover size must match axis count")
    base = p.supports[0]
    if any(s != base for s in p.supports):
        raise ValidationError("product_shearer_gap: all axes must share one support")
    size = len(base)
    flat = p.table.reshape(-1)
    kl_full = _kl_vs_uniform(flat, size**n)
    total = 0.0
    for s in cover.sets:
        coords = tuple(sorted(s))
        if not coords:
            continue
        drop = tuple(i for i in range(n) if i not in coords)
        marg = p.table.sum(axis=drop).reshape(-1) if drop else flat
        total += _kl_vs_uniform(marg, size ** len(coords))
    return cover.k * kl_full - total


def read_k_concentration_gap(p: BijectionDistribution, fam: ReadKFamily) -> float:
    """2k*KL(P||Q) - m*KL(pbar||qbar) for a read-k family on bijections.

    pbar and qbar average E_P[f_j] and E_Q[f_j] over the family; the
    Bernoulli divergence between them is what the family concentration
    bound controls.
    """
    if fam.n != p.n:
        raise ValidationError("read_k_concentration_gap: family and distribution sizes differ")
    m = len(fam.functions)
    if m == 0:
        raise ValidationError("read_k_concentration_gap: empty family")
    p_sum = 0.0
    q_sum = 0.0
    for f in fam.functions:
        coords = tuple(sorted(f.dependencies))
        if coords:
            mass = _marginal_mass(p, coords)
            p_sum += float(mass @ f.values)
            q_sum += float(f.values.mean())
        else:
            v = float(f.values[0])
            p_sum += v
            q_sum += v
    p_bar = min(1.0, max(0.0, p_sum / m))
    q_bar = min(1.0, max(0.0, q_sum / m))
    return 2.0 * fam.k * _kl_vs_uniform(p.mass, p.mass.size) - m * kl_bernoulli(p_bar, q_bar)


def indicator_support(n: int) -> tuple:
    """Canonical support e_0, ..., e_{n-1} of one-hot vectors of length n."""
    return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))


def indicator_distribution(probs: Sequence[float]) -> FiniteDistribution:
    return FiniteDistribution(indicator_support(len(probs)), np.asarray(probs, dtype=float))


def indicator_shearer_gap(p: FiniteDistribution, cover: CoverFamily) -> float:
    """9k*KL(P||Q) - sum_j KL(P_Uj||Q_Uj) for one-hot vectors, Q uniform."""
    n = cover.n
    if set(p.support) != set(indicator_support(n)):
        raise ValidationError("indicator_shearer_gap: support must be the n one-hot vectors")
    probs = np.empty(n)
    for lbl, mass in zip(p.support, p.mass):
        probs[lbl.index(1)] = mass

    def kl_term(q: float) -> float:
        return q * math.log(q * n) if q > 0 else 0.0

    kl_full = sum(kl_term(probs[i]) for i in range(n))
    total = 0.0
    for s in cover.sets:
        if not s:
            continue
        # Marginal outcomes: the one-hot coordinate lies at some i in s,
        # or outside s entirely (one pooled outcome of Q-mass (n-|s|)/n).
        rest = 1.0 - sum(probs[i] for i in s)
        term = sum(kl_term(probs[i]) for i in s)
        if rest > MASS_TOL:
            term += rest * math.log(rest * n / (n - len(s)))
        total += term
    return 9.0 * cover.k * kl_full - total


def pooled_deviation_gap(n: int, probs: Sequence[float]) -> float:
    """Gap of the pooled-deviation inequality used to bound marginal divergences.

    With eps_i = p_i - 1/n, p' = (1 - sum p_i)/(n - l) and
    eps' = p' - 1/n, returns

        4 * sum_i (p_i ln(n p_i) - eps_i)  -  (n p' ln(n p') - n eps')

    which is non-negative whenever l <= n/4.
    """
    probs = [float(x) for x in probs]
    ell = len(probs)
    if n < 1 or ell == 0:
        raise ValidationError("pooled_deviation_gap: need n >= 1 and at least one entry")
    if ell > n / 4:
        raise ValidationError("pooled_deviation_gap: requires l <= n/4")
    if any(not (0.0 < x < 1.0) for x in probs):
        raise ValidationError("pooled_deviation_gap: entries must lie in (0, 1)")
    total = sum(probs)
    if total > 1.0 + 1e-12:
        raise ValidationError("pooled_deviation_gap: entries must sum to at most 1")
    p_rest = (1.0 - total) / (n - ell)
    eps_rest = p_rest - 1.0 / n
    lhs = n * p_rest * math.log(n * p_rest) - n * eps_rest if p_rest > 0 else -n * eps_rest
    rhs = 4.0 * sum(p * math.log(n * p) - (p - 1.0 / n) for p in probs)
    return rhs - lhs


@dataclass(frozen=True)
class ExtremalSearchResult:
    best_ratio: float
    witness: BijectionDistribution
    evaluations: int


def extremal_ratio_search(
    n: int, cover: CoverFamily, trials: int, seed: int
) -> ExtremalSearchResult:
    """Maximize sum_j KL(P_Uj||Q_Uj) / (k * KL(P||Q)) over distributions P.

    Candidates are all n! point masses (one evaluation stands for them
    all, as they share one ratio) plus ``trials`` Dirichlet(1) restarts,
    each hill-climbed for HILL_CLIMB_STEPS multiplicative
    single-coordinate perturbations. P = Q is excluded (the ratio is
    0/0 there); a cover with k = 0 or only empty sets reports ratio 0.
    """
    check_enum_size(n, "extremal_ratio_search")
    if n > RATIO_SEARCH_MAX_N:
        raise ValidationError(f"extremal_ratio_search: n={n} exceeds cap {RATIO_SEARCH_MAX_N}")
    if cover.n != n:
        raise ValidationError("extremal_ratio_search: cover size mismatch")
    trials = nonnegative_int(trials, "extremal_ratio_search: trials")
    rng = seeded_generator(seed, "extremal_ratio_search")
    f = math.factorial(n)
    compiled = _cover_projections(cover)

    def ratio_of(mass: np.ndarray) -> float:
        kl_full = _kl_vs_uniform(mass, f)
        if cover.k == 0 or kl_full <= 1e-15:
            return 0.0
        return _marginal_kl_sum(mass, compiled) / (cover.k * kl_full)

    best_ratio = 0.0
    best_mass = np.full(f, 1.0 / f)

    # Every point mass has the same ratio: each marginal is one-hot, with
    # the term 1.0 * log(count) whatever the rank. Rank 0 stands for all
    # n! of them, since a later one never beats it under the strict ">".
    mass = np.zeros(f)
    mass[0] = 1.0
    rho = ratio_of(mass)
    evaluations = f
    if rho > best_ratio:
        best_ratio, best_mass = rho, mass

    for _ in range(trials):
        mass = rng.dirichlet(np.ones(f))
        rho = ratio_of(mass)
        evaluations += 1
        if rho > best_ratio:
            best_ratio, best_mass = rho, mass.copy()
        for _ in range(HILL_CLIMB_STEPS):
            idx = int(rng.integers(f))
            factor = math.exp(rng.normal(0.0, 0.7))
            cand = mass.copy()
            cand[idx] *= factor
            cand /= cand.sum()
            cand_rho = ratio_of(cand)
            evaluations += 1
            if cand_rho > rho:
                mass, rho = cand, cand_rho
                if rho > best_ratio:
                    best_ratio, best_mass = rho, mass.copy()

    witness = BijectionDistribution(n, best_mass / best_mass.sum())
    return ExtremalSearchResult(best_ratio, witness, evaluations)


def random_bijection_distribution(
    rng: np.random.Generator, n: int, concentration: float = 1.0
) -> BijectionDistribution:
    """Symmetric-Dirichlet random distribution; full support avoids infinite KL."""
    mass = rng.dirichlet(np.full(math.factorial(n), concentration))
    return BijectionDistribution(n, mass / mass.sum())


def random_cover(rng: np.random.Generator, n: int, max_sets: int = 6) -> CoverFamily:
    m = int(rng.integers(1, max_sets + 1))
    sets = []
    for _ in range(m):
        mask = rng.random(n) < 0.5
        sets.append(frozenset(int(i) for i in np.nonzero(mask)[0]))
    return CoverFamily(n, tuple(sets))


def random_read_k_family(
    rng: np.random.Generator, n: int, max_functions: int = 4
) -> ReadKFamily:
    m = int(rng.integers(1, max_functions + 1))
    functions = []
    for _ in range(m):
        mask = rng.random(n) < 0.5
        dep = frozenset(int(i) for i in np.nonzero(mask)[0])
        functions.append(ReadKFunction(dep, rng.random(math.perm(n, len(dep)))))
    return ReadKFamily(n, tuple(functions))

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

Each divergence against uniform is computed once per distribution: a
``BijectionDistribution`` keeps a table, filled as it is read, of
KL(P||Q) and of each marginal's KL, keyed by sorted coordinate tuple.
A cover's sum adds the table values in cover order from 0.0, so it does
not depend on what earlier covers or read-k families filled in.

The marginals missing from the table are computed in runs: k
consecutive sets whose marginals have c bins each are one
``np.bincount``, with set j's ``_projection`` bins shifted by j*c and
the mass repeated k times as weights. ``bincount`` adds each weight to
its bin in index order, so every bin still adds its own set's ranks in
rank order, and the run equals k separate ``bincount`` calls bit for bit.
The same holds for several mass vectors at once: row r's bins lie past
row r-1's, so one ``bincount`` per run serves every row.

Each check runs once, where the data enters: a constructor validates
its input and keeps what the gaps read (sorted coordinate tuples
``_coords``, the multiplicity k of ``_multiplicity``), and a gap checks
only what ties its arguments together. Loops read Python floats, and
small arrays go through ufunc methods, not numpy's Python wrappers.

``extremal_ratio_search`` climbs its restarts in lockstep, up to
SEARCH_BLOCK of them as the rows of one (rows, n!) array, so each
hill-climb step is one batched evaluation. Acceptance never moves a
draw, so each block draws first, restart by restart, in the order of a
one-at-a-time climb, and every ratio, witness and count equals that
climb's (see its docstring). The block bounds the memory: any number of
restarts runs in arrays of at most SEARCH_BLOCK rows.
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
from .permutations import check_enum_size, permutation_matrix
from .seeding import seeded_generator

RATIO_SEARCH_MAX_N = 6
HILL_CLIMB_STEPS = 200
SEARCH_BLOCK = 64  # restarts climbed in lockstep: bounds the (rows, n!) arrays


@dataclass(frozen=True, eq=False)
class BijectionDistribution:
    """Probability mass over all n! bijections of range(n).

    ``mass[r]`` is the probability of the bijection whose permutation
    word has Lehmer rank ``r``. ``_kl`` is the divergence table, filled
    as it is read (the mass is read-only): KL(P||Q) under ``()`` and each
    marginal's KL under its sorted coordinate tuple.
    """

    n: int
    mass: np.ndarray
    _kl: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", check_enum_size(self.n, "BijectionDistribution"))
        arr = _as_mass_array(self.mass, "BijectionDistribution", (math.factorial(self.n),))
        object.__setattr__(self, "mass", arr)

    @classmethod
    def uniform(cls, n: int) -> "BijectionDistribution":
        f = math.factorial(check_enum_size(n, "BijectionDistribution"))
        return cls(n, np.full(f, 1.0 / f))


def _multiplicity(n: int, coords: Iterable, what: str) -> int:
    """k: the most of the sorted tuples ``coords`` that share one coordinate in range(n)."""
    multiplicity = [0] * n
    for c in coords:
        if c and (c[0] < 0 or c[-1] >= n):
            raise ValidationError(f"{what} out of range(n)")
        for i in c:
            multiplicity[i] += 1
    return max(multiplicity)


@dataclass(frozen=True, eq=False)
class CoverFamily:
    """Subsets U_1..U_m of range(n) with max per-coordinate multiplicity k.

    ``_coords`` holds the non-empty sets as sorted coordinate tuples, in
    cover order: the keys of their marginals.
    """

    n: int
    sets: tuple
    k: int = field(init=False)
    _coords: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", nonnegative_int(self.n, "CoverFamily: n"))
        if self.n < 1:
            raise ValidationError("CoverFamily: n must be positive")
        try:
            sets = tuple(frozenset(map(operator.index, s)) for s in self.sets)
        except TypeError:
            raise ValidationError("CoverFamily: sets must hold integer coordinates") from None
        coords = tuple(tuple(sorted(s)) for s in sets if s)
        object.__setattr__(self, "k", _multiplicity(self.n, coords, "CoverFamily: set element"))
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "_coords", coords)


@dataclass(frozen=True, eq=False)
class ReadKFunction:
    """One member of a read-k family: depends only on ``dependencies``.

    ``values[i]`` in [0, 1] is the value on the i-th injective assignment
    of the sorted dependencies ``_coords``, that is on
    ``marginal_distribution(p, dependencies).support[i]`` (``_projection``
    bin order). Values off the bijections are never queried.
    """

    dependencies: frozenset
    values: np.ndarray
    _coords: tuple = field(init=False, repr=False)

    def __post_init__(self):
        try:
            dependencies = frozenset(map(operator.index, self.dependencies))
        except TypeError:
            raise ValidationError("ReadKFunction: dependencies must be integer coordinates") from None
        values = _as_float_array(self.values, "ReadKFunction")
        if values.ndim != 1:
            raise ValidationError("ReadKFunction: values must be one-dimensional")
        # a NaN fails both comparisons; empty values pass
        if not (values.min(initial=0.0) >= 0.0 and values.max(initial=1.0) <= 1.0):
            raise ValidationError("ReadKFunction: values must lie in [0, 1]")
        values.setflags(write=False)
        object.__setattr__(self, "dependencies", dependencies)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_coords", tuple(sorted(dependencies)))


@dataclass(frozen=True, eq=False)
class ReadKFamily:
    """Read-k functions on bijections of range(n); each holds perm(n, |deps|) values."""

    n: int
    functions: tuple
    k: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", check_enum_size(self.n, "ReadKFamily"))
        functions = tuple(self.functions)
        k = _multiplicity(self.n, [f._coords for f in functions], "ReadKFamily: dependency")
        object.__setattr__(self, "k", k)
        for f in functions:
            if f.values.size != math.perm(self.n, len(f._coords)):
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


def _kl_vs_uniform(mass: np.ndarray, count: int) -> float:
    # Without zero entries the filter would only copy: the terms are the same.
    pos = mass if np.count_nonzero(mass) == mass.size else mass[mass > 0]
    return float(np.add.reduce(pos * np.log(pos * count))) if pos.size else 0.0


def _marginal_mass(p: BijectionDistribution, coords: tuple) -> np.ndarray:
    inverse, count = _projection(p.n, coords)
    return np.bincount(inverse, weights=p.mass, minlength=count)


def marginal_distribution(p: BijectionDistribution, u: Iterable) -> FiniteDistribution:
    """Distribution of the coordinate vector (X_i for i in u), sorted-u order.

    The support enumerates *all* injective |u|-tuples of range(n)
    (zero-mass tuples included) so that divergences against the uniform
    marginal are directly computable.
    """
    try:
        coords = tuple(sorted(set(map(operator.index, u))))
    except TypeError:
        raise ValidationError("marginal_distribution: coordinates must be integers") from None
    _multiplicity(p.n, (coords,), "marginal_distribution: coordinate")  # the range check
    if not coords:
        return FiniteDistribution(((),), np.array([1.0]))
    # the injective value tuples in lexicographic order, as _projection numbers its
    # bins; aggregated masses of a valid distribution stay normalized
    return FiniteDistribution(tuple(itertools.permutations(range(p.n), len(coords))), _marginal_mass(p, coords))


@lru_cache(maxsize=None)
def _run_ranks(n: int, k: int) -> np.ndarray:
    """The ranks 0..n!-1 repeated k times: the weight order of a k-set run."""
    ranks = np.tile(np.arange(math.factorial(n)), k)
    ranks.setflags(write=False)
    return ranks


def _compile_runs(n: int, coord_sets: Sequence, rows: int = 1) -> list:
    """Sorted coordinate tuples compiled for ``_marginal_kls`` on (rows, n!) masses.

    Each run is (count, index, ranks) for consecutive sets whose
    marginals all have ``count`` bins: ``index`` is their ``_projection``
    inverses, set j's shifted by j * count, repeated per row with row r's
    shifted by r * k * count, and ``ranks`` the weight order in the
    flattened masses, row r's ranks shifted by r * n! (None for a run of
    one set, whose weights are the flattened masses themselves).
    """
    runs = []
    for coords in coord_sets:
        inverse, count = _projection(n, coords)
        if runs and runs[-1][0] == count:
            invs = runs[-1][1]
            invs.append(inverse + len(invs) * count)
        else:
            runs.append((count, [inverse]))
    compiled = []
    for count, invs in runs:
        k = len(invs)
        index = invs[0] if k == 1 else np.concatenate(invs)
        ranks = None if k == 1 else _run_ranks(n, k)
        if rows > 1:
            index = (index + (np.arange(rows) * (k * count))[:, None]).reshape(-1)
            if ranks is not None:
                ranks = (ranks + (np.arange(rows) * math.factorial(n))[:, None]).reshape(-1)
        compiled.append((count, index, ranks))
    return compiled


def _marginal_kls(flat: np.ndarray, runs: list) -> list:
    """KL(marginal || uniform) of rank-order mass rows, per compiled run.

    ``flat`` holds the rows end to end (a C-contiguous (rows, n!) array's
    ``reshape(-1)``, or one mass vector), and ``runs`` were compiled for
    its row count. Each run gives an array of its rows * k set KLs, row
    by row. One ``bincount`` per run (exact; see the module docstring).
    Masses without zero entries then take one fused
    ``marg * log(marg * c)`` pass per run, and each value equals
    ``_kl_vs_uniform`` on its row's marginal:

    * each set's terms are summed by numpy's pairwise sum over that
      set's bins alone: ``np.add.reduce(..., axis=1)`` on the
      (rows * k, c) array groups like the 1-D sum of each set
      (``np.add.reduceat`` does not, even on 3 bins);
    * ``_kl_vs_uniform`` drops zero bins before its sum, which moves the
      pairwise grouping once a marginal has 8 or more bins. A bin is 0
      only if the mass is 0 on every permutation in it, so masses with
      any zero entry go set by set through ``_kl_vs_uniform`` instead.
    """
    full = np.count_nonzero(flat) == flat.size
    kls = []
    for count, index, ranks in runs:
        # every bin holds at least one rank, so the run has rows * k * count bins
        marg = np.bincount(index, weights=flat if ranks is None else flat.take(ranks)).reshape(-1, count)
        if full:
            kls.append(np.add.reduce(marg * np.log(marg * count), axis=1))
        else:
            kls.append(np.array([_kl_vs_uniform(row, count) for row in marg]))
    return kls


def _kl_table(p: BijectionDistribution, coord_sets: Iterable = ()) -> dict:
    """p's divergence table, with KL(P||Q) and the marginal KL of every set in
    ``coord_sets`` (sorted coordinate tuples) filled in."""
    table = p._kl
    if () not in table:
        table[()] = _kl_vs_uniform(p.mass, p.mass.size)
    # equal-size sets form one run; the order of the fill moves no value
    missing = sorted(set(coord_sets).difference(table), key=len)
    if missing:
        values = []
        for run in _marginal_kls(p.mass, _compile_runs(p.n, missing)):
            values += run.tolist()
        table.update(zip(missing, values))
    return table


def bijection_shearer_terms(p: BijectionDistribution, cover: CoverFamily) -> tuple:
    """(KL(P||Q), sum_j KL(P_Uj||Q_Uj)) with Q uniform over bijections.

    The sum adds p's table values in cover order, starting from 0.0.
    """
    if cover.n != p.n:
        raise ValidationError("cover and distribution sizes differ")
    table = _kl_table(p, cover._coords)
    return table[()], sum(map(table.__getitem__, cover._coords), 0.0)


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
    for coords in cover._coords:
        marg = np.add.reduce(p.table, axis=tuple(i for i in range(n) if i not in coords)).reshape(-1)
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
        coords = f._coords
        if coords:
            p_sum += float(_marginal_mass(p, coords) @ f.values)
            q_sum += float(np.add.reduce(f.values) / f.values.size)  # what .mean() computes
        else:
            v = float(f.values[0])
            p_sum += v
            q_sum += v
    p_bar = min(1.0, max(0.0, p_sum / m))
    q_bar = min(1.0, max(0.0, q_sum / m))
    return 2.0 * fam.k * _kl_table(p)[()] - m * kl_bernoulli(p_bar, q_bar)


def indicator_support(n: int) -> tuple:
    """Canonical support e_0, ..., e_{n-1} of one-hot vectors of length n."""
    return _indicator_support(nonnegative_int(n, "indicator_support: n"))


@lru_cache(maxsize=None)
def _indicator_support(n: int) -> tuple:
    return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))


def indicator_distribution(probs: Sequence[float]) -> FiniteDistribution:
    return FiniteDistribution(indicator_support(len(probs)), probs)


def indicator_shearer_gap(p: FiniteDistribution, cover: CoverFamily) -> float:
    """9k*KL(P||Q) - sum_j KL(P_Uj||Q_Uj) for one-hot vectors, Q uniform."""
    n = cover.n
    if set(p.support) != set(indicator_support(n)):
        raise ValidationError("indicator_shearer_gap: support must be the n one-hot vectors")
    probs = [0.0] * n
    for lbl, mass in zip(p.support, p.mass.tolist()):
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

    The restarts run in lockstep, in blocks of at most SEARCH_BLOCK rows.
    Acceptance never feeds back into the draws, so a block first draws
    every restart's start and steps, restart by restart, with the scalar
    calls of a one-at-a-time climb in its order; then each step is one
    (rows, n!) candidate array and one ratio per row. Every value equals
    that climb's: a candidate row is scaled at its drawn entry and divided
    by its own sum (numpy sums each contiguous row pairwise, as it sums a
    1-D array); ``ratios_of`` evaluates each row as the climb evaluates
    its one mass; and each row's best is its final state (a row's ratio
    only rises), so merging the rows in restart order with a strict ">"
    keeps the climb's first maximum.
    """
    n = check_enum_size(n, "extremal_ratio_search")
    if n > RATIO_SEARCH_MAX_N:
        raise ValidationError(f"extremal_ratio_search: n={n} exceeds cap {RATIO_SEARCH_MAX_N}")
    if cover.n != n:
        raise ValidationError("extremal_ratio_search: cover size mismatch")
    trials = nonnegative_int(trials, "extremal_ratio_search: trials")
    rng = seeded_generator(seed, "extremal_ratio_search")
    f = math.factorial(n)

    def ratios_of(masses: np.ndarray, runs: list) -> np.ndarray:
        # KL(P||Q) as _kl_vs_uniform computes it: an axis-1 sum adds each
        # row pairwise, as the 1-D sum does, and rows with a zero entry
        # take its zero filter. The set KLs add in cover order from 0.0.
        rows = masses.shape[0]
        if cover.k == 0:
            return np.zeros(rows)
        if np.count_nonzero(masses) == masses.size:
            kl_full = np.add.reduce(masses * np.log(masses * f), axis=1)
        else:
            kl_full = np.array([_kl_vs_uniform(row, f) for row in masses])
        total = np.zeros(rows)
        for run in _marginal_kls(masses.reshape(-1), runs):
            for column in run.reshape(rows, -1).T:
                total += column
        # 0.0 where kl_full <= 1e-15; a NaN fails "<=" and divides
        return np.divide(total, cover.k * kl_full, out=np.zeros(rows), where=~(kl_full <= 1e-15))

    def climbed():
        """(ratios, masses) of the point mass, then of each block's final states."""
        # Every point mass has the same ratio: each marginal is one-hot, with
        # the term 1.0 * log(count) whatever the rank. Rank 0 stands for all
        # n! of them, since a later one never beats it under the strict ">".
        point = np.zeros((1, f))
        point[0, 0] = 1.0
        yield ratios_of(point, _compile_runs(n, cover._coords)), point
        for first in range(0, trials, SEARCH_BLOCK):
            rows = min(SEARCH_BLOCK, trials - first)
            masses = np.empty((rows, f))
            # step s perturbs entry positions[s, r] of the flattened masses by factors[s, r]
            positions = np.empty((HILL_CLIMB_STEPS, rows), dtype=np.int64)
            factors = np.empty((HILL_CLIMB_STEPS, rows))
            for r in range(rows):
                masses[r] = rng.dirichlet(np.ones(f))
                positions[:, r], factors[:, r] = zip(
                    *[(rng.integers(f), math.exp(rng.normal(0.0, 0.7))) for _ in range(HILL_CLIMB_STEPS)]
                )
            positions += np.arange(rows) * f
            runs = _compile_runs(n, cover._coords, rows)
            rho = ratios_of(masses, runs)
            for step in range(HILL_CLIMB_STEPS):
                cand = masses.copy()
                cand.reshape(-1)[positions[step]] *= factors[step]
                cand /= cand.sum(axis=1, keepdims=True)
                cand_rho = ratios_of(cand, runs)
                accept = cand_rho > rho
                np.copyto(masses, cand, where=accept[:, None])
                np.copyto(rho, cand_rho, where=accept)
            yield rho, masses

    best_ratio = 0.0
    best_mass = np.full(f, 1.0 / f)
    for rho, masses in climbed():
        for r in range(len(rho)):
            if rho[r] > best_ratio:
                best_ratio, best_mass = float(rho[r]), masses[r]
    evaluations = f + trials * (1 + HILL_CLIMB_STEPS)

    witness = BijectionDistribution(n, best_mass / best_mass.sum())
    return ExtremalSearchResult(best_ratio, witness, evaluations)


def random_bijection_distribution(rng: np.random.Generator, n: int) -> BijectionDistribution:
    """Flat-Dirichlet random distribution; full support avoids infinite KL."""
    n = check_enum_size(n, "random_bijection_distribution")
    mass = rng.dirichlet(np.ones(math.factorial(n)))
    return BijectionDistribution(n, mass / mass.sum())


def random_cover(rng: np.random.Generator, n: int, max_sets: int = 6) -> CoverFamily:
    n = nonnegative_int(n, "random_cover: n")
    m = int(rng.integers(1, max_sets + 1))
    # one (m, n) draw: the same doubles, in the same order, as m draws of n
    masks = (rng.random((m, n)) < 0.5).tolist()
    return CoverFamily(n, tuple(frozenset(itertools.compress(range(n), mask)) for mask in masks))


def random_read_k_family(rng: np.random.Generator, n: int) -> ReadKFamily:
    """One to four functions, each on a random subset of the coordinates."""
    n = check_enum_size(n, "random_read_k_family")
    m = int(rng.integers(1, 5))
    functions = []
    for _ in range(m):
        dep = tuple(itertools.compress(range(n), (rng.random(n) < 0.5).tolist()))
        functions.append(ReadKFunction(dep, rng.random(math.perm(n, len(dep)))))
    return ReadKFamily(n, tuple(functions))

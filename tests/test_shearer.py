import itertools
import math

import numpy as np
import pytest

from permchal.errors import ValidationError
from permchal.infotheory import (
    IDENTITY_TOL,
    FiniteDistribution,
    JointDistribution,
    kl_bernoulli,
    kl_divergence,
)
from permchal.permutations import permutation_matrix, permutation_unrank
from permchal.shearer import (
    HILL_CLIMB_STEPS,
    SEARCH_BLOCK,
    BijectionDistribution,
    CoverFamily,
    ReadKFamily,
    ReadKFunction,
    _compile_runs,
    _marginal_kls,
    _projection,
    bijection_shearer_gap,
    bijection_shearer_terms,
    extremal_ratio_search,
    indicator_distribution,
    indicator_shearer_gap,
    indicator_support,
    marginal_distribution,
    product_shearer_gap,
    random_bijection_distribution,
    random_cover,
    random_read_k_family,
    read_k_concentration_gap,
)

LN2 = math.log(2.0)
GAP_TOL = 1e-9


def singleton_cover(n):
    return CoverFamily(n, tuple(frozenset([i]) for i in range(n)))


class TestPermutationRanking:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_round_trip_exhaustive(self, n):
        mat = permutation_matrix(n)
        for rank in range(math.factorial(n)):
            assert permutation_unrank(n, rank) == tuple(mat[rank])

    def test_matrix_matches_unrank(self):
        mat = permutation_matrix(4)
        for rank in range(24):
            assert tuple(mat[rank]) == permutation_unrank(4, rank)

    def test_enumeration_cap(self):
        with pytest.raises(ValidationError):
            permutation_matrix(9)

    @pytest.mark.parametrize("n,rank", [(3, 1.5), (2.5, 0), (-1, 0), (3, -1), ("3", 0), (3, 6)])
    def test_unrank_rejects_bad_sizes_and_ranks(self, n, rank):
        with pytest.raises(ValidationError, match="permutation_unrank"):
            permutation_unrank(n, rank)

    def test_unrank_of_the_empty_permutation(self):
        assert permutation_unrank(0, 0) == ()
        assert permutation_unrank(np.int64(3), np.int64(5)) == (2, 1, 0)

    def test_numpy_sizes_pass_and_non_integers_fail(self):
        n = np.int64(3)
        assert BijectionDistribution.uniform(n).n == 3
        assert permutation_matrix(n).shape == (6, 3)
        assert extremal_ratio_search(n, singleton_cover(3), trials=1, seed=0).best_ratio > 0
        for bad in (3.0, "3", None):
            for build in (
                BijectionDistribution.uniform,
                permutation_matrix,
                lambda m: extremal_ratio_search(m, singleton_cover(3), trials=1, seed=0),
            ):
                with pytest.raises(ValidationError):
                    build(bad)


class TestBijectionDistribution:
    def test_validation(self):
        with pytest.raises(ValidationError):
            BijectionDistribution(3, np.full(5, 0.2))
        with pytest.raises(ValidationError):
            BijectionDistribution(9, np.full(362880, 1 / 362880))


class TestMarginal:
    def test_empty_coordinates(self):
        p = BijectionDistribution.uniform(3)
        m = marginal_distribution(p, ())
        assert m.support == ((),) and m.mass[0] == 1.0

    def test_full_projection_is_p(self):
        rng = np.random.Generator(np.random.PCG64(1))
        p = random_bijection_distribution(rng, 4)
        m = marginal_distribution(p, range(4))
        # full projection re-indexes the same masses
        assert np.allclose(np.sort(m.mass), np.sort(p.mass))
        assert len(m.support) == 24

    def test_uniform_pairs(self):
        p = BijectionDistribution.uniform(3)
        m = marginal_distribution(p, (0, 1))
        assert len(m.support) == 6
        assert np.allclose(m.mass, 1 / 6)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            marginal_distribution(BijectionDistribution.uniform(3), (3,))
        for bad in ((1.5,), ("a",)):
            with pytest.raises(ValidationError):
                marginal_distribution(BijectionDistribution.uniform(3), bad)
        p = random_bijection_distribution(np.random.Generator(np.random.PCG64(0)), 3)
        assert np.array_equal(marginal_distribution(p, (True,)).mass, marginal_distribution(p, (1,)).mass)

    def test_marginal_kl_never_exceeds_full_kl(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(100):
            n = int(rng.integers(2, 6))
            p = random_bijection_distribution(rng, n)
            size = int(rng.integers(1, n + 1))
            coords = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            full = kl_divergence(
                marginal_distribution(p, range(n)),
                marginal_distribution(BijectionDistribution.uniform(n), range(n)),
            )
            part = kl_divergence(
                marginal_distribution(p, coords),
                marginal_distribution(BijectionDistribution.uniform(n), coords),
            )
            assert part <= full + IDENTITY_TOL


class TestCoverFamily:
    def test_k_recomputed(self):
        c = CoverFamily(3, (frozenset([0, 1]), frozenset([1, 2]), frozenset([1])))
        assert c.k == 3

    def test_empty_sets_allowed(self):
        assert CoverFamily(3, (frozenset(),)).k == 0

    def test_out_of_range(self):
        for bad in ([3], [-1], [0, 3], [-1, 2]):
            with pytest.raises(ValidationError, match=r"^CoverFamily: set element out of range\(n\)$"):
                CoverFamily(3, (frozenset([1]), frozenset(bad)))

    @pytest.mark.parametrize("sets", [(frozenset(["a"]),), ([0, 1.5],), ([None],), (3,)])
    def test_non_integer_elements_are_validation_errors(self, sets):
        with pytest.raises(ValidationError, match="^CoverFamily: sets must hold integer coordinates$"):
            CoverFamily(3, sets)

    def test_numpy_integer_elements_accepted(self):
        c = CoverFamily(3, (np.arange(2), [np.int64(2)]))
        assert c.sets == (frozenset([0, 1]), frozenset([2]))

    @pytest.mark.parametrize("n", [2.5, "3", None, -1, 0])
    def test_bad_n_is_a_validation_error(self, n):
        with pytest.raises(ValidationError, match="CoverFamily: n"):
            CoverFamily(n, ())

    def test_numpy_integer_n_is_a_python_int(self):
        assert type(CoverFamily(np.int64(3), ()).n) is int

    @pytest.mark.parametrize("n", [2.5, "3", -1])
    def test_random_cover_and_indicator_support_check_n(self, n):
        with pytest.raises(ValidationError, match="random_cover: n"):
            random_cover(np.random.Generator(np.random.PCG64(0)), n)
        with pytest.raises(ValidationError, match="indicator_support: n"):
            indicator_support(n)

    @pytest.mark.parametrize("max_sets", [1, 6, 8])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_random_cover_draws_the_row_by_row_sets(self, n, max_sets):
        rng = np.random.Generator(np.random.PCG64(400 + n))
        ref = np.random.Generator(np.random.PCG64(400 + n))
        for _ in range(20):
            assert random_cover(rng, n, max_sets).sets == _reference_random_cover(ref, n, max_sets)
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", [2.5, "3", 0, 9, 13])
    @pytest.mark.parametrize("sampler", [random_bijection_distribution, random_read_k_family])
    def test_samplers_check_n_before_drawing(self, sampler, n):
        # at n = 13 an unchecked draw asks numpy for gigabytes before failing
        rng = np.random.Generator(np.random.PCG64(0))
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match=f"{sampler.__name__}: n"):
            sampler(rng, n)
        assert rng.bit_generator.state == state


class TestBijectionShearerGap:
    def test_uniform_is_zero(self):
        p = BijectionDistribution.uniform(4)
        cover = random_cover(np.random.Generator(np.random.PCG64(3)), 4)
        assert bijection_shearer_gap(p, cover, 123.0) == pytest.approx(0.0, abs=1e-12)

    def test_extremal_point_mass_n2(self):
        p = BijectionDistribution(2, np.eye(2)[0])  # the identity, row 0 of permutation_matrix(2)
        assert bijection_shearer_gap(p, singleton_cover(2), 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_point_mass_n3(self):
        p = BijectionDistribution(3, np.eye(6)[0])  # the identity, row 0 of permutation_matrix(3)
        expected = 2 * math.log(6) - 3 * math.log(3)
        assert bijection_shearer_gap(p, singleton_cover(3), 2.0) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_random_sweep_nonnegative(self, n):
        rng = np.random.Generator(np.random.PCG64(100 + n))
        for _ in range(150):
            p = random_bijection_distribution(rng, n)
            cover = random_cover(rng, n)
            assert bijection_shearer_gap(p, cover, 2.0) >= -GAP_TOL
            assert bijection_shearer_gap(p, cover, 9.0) >= -GAP_TOL


class TestProductShearerGap:
    def test_uniform_is_zero(self):
        n = 3
        joint = JointDistribution(
            tuple(f"x{i}" for i in range(n)),
            tuple((0, 1) for _ in range(n)),
            np.full((2,) * n, 1 / 8),
        )
        assert product_shearer_gap(joint, singleton_cover(n)) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_singletons_tight(self):
        joint = JointDistribution(
            ("x0", "x1"), ((0, 1), (0, 1)), np.array([[1.0, 0.0], [0.0, 0.0]])
        )
        assert product_shearer_gap(joint, singleton_cover(2)) == pytest.approx(0.0, abs=1e-12)

    def test_random_pair_cover_nonnegative(self):
        rng = np.random.Generator(np.random.PCG64(4))
        cover = CoverFamily(3, (frozenset([0, 1]), frozenset([1, 2]), frozenset([0, 2])))
        assert cover.k == 2
        axes = ("x0", "x1", "x2")
        supports = ((0, 1), (0, 1), (0, 1))
        for _ in range(1000):
            table = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
            joint = JointDistribution(axes, supports, table)
            assert product_shearer_gap(joint, cover) >= -GAP_TOL


class TestReadKConcentrationGap:
    def test_uniform_is_zero(self):
        p = BijectionDistribution.uniform(3)
        fam = random_read_k_family(np.random.Generator(np.random.PCG64(5)), 3)
        assert read_k_concentration_gap(p, fam) == pytest.approx(0.0, abs=1e-12)

    def test_single_indicator_worked_example(self):
        p = BijectionDistribution(2, np.eye(2)[0])  # the identity, row 0 of permutation_matrix(2)
        # f = 1 when X_0 is the first label of marginal_distribution(p, [0]).support
        fam = ReadKFamily(2, (ReadKFunction(frozenset([0]), [1.0, 0.0]),))
        assert read_k_concentration_gap(p, fam) == pytest.approx(LN2, abs=1e-12)

    def test_diagonal_indicators_nonnegative(self):
        n = 4
        fams = []
        for j in range(n):
            values = [1.0 if v == j else 0.0 for v in range(n)]
            fams.append(ReadKFunction(frozenset([j]), values))
        fam = ReadKFamily(n, tuple(fams))
        assert fam.k == 1
        rng = np.random.Generator(np.random.PCG64(6))
        for _ in range(1000):
            p = random_bijection_distribution(rng, n)
            assert read_k_concentration_gap(p, fam) >= -GAP_TOL

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_random_families_nonnegative(self, n):
        rng = np.random.Generator(np.random.PCG64(200 + n))
        for _ in range(150):
            p = random_bijection_distribution(rng, n)
            fam = random_read_k_family(rng, n)
            assert read_k_concentration_gap(p, fam) >= -GAP_TOL

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param([0.5] * 5, id="wrong-length"),
            pytest.param([[0.5] * 6], id="two-dimensional"),
            pytest.param([0.5] * 5 + [math.nan], id="nan"),
            pytest.param([0.5] * 5 + [1.5], id="above-one"),
            pytest.param([0.5] * 5 + [-0.1], id="negative"),
            pytest.param({(0,): 1.0, (5, 9): 1.0}, id="dict"),
            pytest.param(["a"] * 6, id="strings"),
            pytest.param([[0.5], [0.5, 0.5]], id="ragged"),
        ],
    )
    def test_bad_values_are_validation_errors(self, values):
        # dependencies {0, 1} at n = 3 need perm(3, 2) = 6 values
        with pytest.raises(ValidationError):
            ReadKFamily(3, (ReadKFunction(frozenset([0, 1]), values),))

    @pytest.mark.parametrize("dependencies", [frozenset(["a"]), [0, 1.5], [None], 3, "01"], ids=repr)
    def test_non_integer_dependencies_are_validation_errors(self, dependencies):
        with pytest.raises(ValidationError, match="ReadKFunction: dependencies must be integer"):
            ReadKFunction(dependencies, [0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5, -5e-324, 1.0 + 2**-52, 2.0], ids=repr)
    def test_values_outside_the_unit_interval_are_validation_errors(self, bad):
        for values in ([bad], [0.5, bad, 0.25], [bad] + [0.0] * 9):
            with pytest.raises(ValidationError, match=r"ReadKFunction: values must lie in \[0, 1\]"):
                ReadKFunction(frozenset([0]), values)

    def test_unit_interval_ends_and_empty_values_pass(self):
        assert ReadKFunction(frozenset([0]), [0.0, 1.0, -0.0]).values.tolist() == [0.0, 1.0, -0.0]
        assert ReadKFunction(frozenset(), []).values.size == 0

    def test_dependencies_are_python_int_coordinates(self):
        f = ReadKFunction(np.array([2, 0]), [0.5] * 6)
        assert f.dependencies == frozenset([0, 2])
        assert all(type(i) is int for i in f.dependencies)
        assert ReadKFamily(3, (f, ReadKFunction([True], [0.5] * 3))).k == 1

    @pytest.mark.parametrize("bad", [[3], [-1], [0, 3], [-1, 2]], ids=repr)
    def test_family_rejects_a_dependency_out_of_range(self, bad):
        f = ReadKFunction(frozenset(bad), [0.5] * math.perm(3, len(bad)))
        with pytest.raises(ValidationError, match=r"ReadKFamily: dependency out of range\(n\)"):
            ReadKFamily(3, (ReadKFunction(frozenset([1]), [0.5] * 3), f))

    def test_family_k_is_the_dependency_multiplicity(self):
        deps = ([0, 1], [], [1, 2], [1], [])
        fam = ReadKFamily(3, tuple(ReadKFunction(d, [0.5] * math.perm(3, len(d))) for d in deps))
        assert fam.k == 3 == CoverFamily(3, deps).k
        assert ReadKFamily(3, (ReadKFunction([], [0.5]),)).k == 0


class TestIndicatorShearerGap:
    def test_uniform_is_zero(self):
        n = 4
        p = indicator_distribution([1 / n] * n)
        cover = random_cover(np.random.Generator(np.random.PCG64(7)), n)
        assert indicator_shearer_gap(p, cover) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_worked_example(self):
        p = indicator_distribution([1.0, 0.0])
        cover = singleton_cover(2)
        assert indicator_shearer_gap(p, cover) == pytest.approx(7 * LN2, abs=1e-12)

    def test_random_sweep_nonnegative(self):
        rng = np.random.Generator(np.random.PCG64(8))
        n = 4
        for _ in range(1000):
            p = indicator_distribution(rng.dirichlet(np.ones(n)))
            cover = random_cover(rng, n)
            if cover.k > 3:
                continue
            assert indicator_shearer_gap(p, cover) >= -GAP_TOL

    @pytest.mark.parametrize("probs", [[0.5, "x"], [0.5, None], [[0.5], [0.5, 0.0]]])
    def test_non_numeric_probs_are_validation_errors(self, probs):
        with pytest.raises(ValidationError, match="FiniteDistribution"):
            indicator_distribution(probs)

    def test_support_mismatch(self):
        bad = FiniteDistribution(((1, 1, 0), (0, 0, 1), (0, 1, 0)), np.array([0.2, 0.3, 0.5]))
        with pytest.raises(ValidationError):
            indicator_shearer_gap(bad, singleton_cover(3))


class TestExtremalRatioSearch:
    def test_n2_exact(self):
        res = extremal_ratio_search(2, singleton_cover(2), trials=3, seed=0)
        assert res.best_ratio == 2.0
        assert res.witness.mass.max() == 1.0  # point-mass witness

    def test_n3_beats_target(self):
        res = extremal_ratio_search(3, singleton_cover(3), trials=3, seed=0)
        assert res.best_ratio >= 1.5 - 0.01

    def test_never_exceeds_two(self):
        # the c = 2 inequality caps the ratio
        for n in (2, 3, 4):
            res = extremal_ratio_search(n, singleton_cover(n), trials=5, seed=1)
            assert res.best_ratio <= 2.0 + 1e-9

    def test_degenerate_cover_reports_zero(self):
        res = extremal_ratio_search(3, CoverFamily(3, (frozenset(),)), trials=2, seed=0)
        assert res.best_ratio == 0.0

    def test_cap(self):
        with pytest.raises(ValidationError):
            extremal_ratio_search(7, singleton_cover(7), trials=1, seed=0)

    @pytest.mark.parametrize("trials", [-3, 2.5, "2", None])
    def test_bad_trials_are_validation_errors(self, trials):
        with pytest.raises(ValidationError):
            extremal_ratio_search(3, singleton_cover(3), trials=trials, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.0, None])
    def test_bad_seed_is_a_validation_error(self, seed):
        with pytest.raises(ValidationError):
            extremal_ratio_search(3, singleton_cover(3), trials=1, seed=seed)


def _reference_kl_vs_uniform(mass, count):
    pos = mass[mass > 0]
    return float((pos * np.log(pos * count)).sum()) if pos.size else 0.0


def _reference_marginal_kls(mass, cover):
    """The per-projection marginal KLs: one bincount and one KL per non-empty set."""
    projections = [_projection(cover.n, tuple(sorted(s))) for s in cover.sets if s]
    return [
        _reference_kl_vs_uniform(np.bincount(inverse, weights=mass, minlength=count), count)
        for inverse, count in projections
    ]


def _reference_marginal_kl_sum(mass, cover):
    """The per-projection marginal KL sum, added in cover order from 0.0."""
    return sum(_reference_marginal_kls(mass, cover), 0.0)


def _reference_random_cover(rng, n, max_sets):
    """random_cover's sets drawn one row at a time."""
    m = int(rng.integers(1, max_sets + 1))
    return tuple(frozenset(int(i) for i in np.nonzero(rng.random(n) < 0.5)[0]) for _ in range(m))


def _reference_random_read_k_family(rng, n):
    """random_read_k_family's dependencies drawn through np.nonzero."""
    functions = []
    for _ in range(int(rng.integers(1, 5))):
        dep = frozenset(int(i) for i in np.nonzero(rng.random(n) < 0.5)[0])
        functions.append((dep, rng.random(math.perm(n, len(dep)))))
    return functions


def _reference_read_k_gap(p, fam):
    """The read-k gap with k from a cover of the dependencies, sorted(dependencies) and values.mean()."""
    k = CoverFamily(fam.n, tuple(f.dependencies for f in fam.functions)).k
    m = len(fam.functions)
    p_sum = q_sum = 0.0
    for f in fam.functions:
        coords = tuple(sorted(f.dependencies))
        if coords:
            inverse, count = _projection(p.n, coords)
            p_sum += float(np.bincount(inverse, weights=p.mass, minlength=count) @ f.values)
            q_sum += float(f.values.mean())
        else:
            v = float(f.values[0])
            p_sum += v
            q_sum += v
    p_bar = min(1.0, max(0.0, p_sum / m))
    q_bar = min(1.0, max(0.0, q_sum / m))
    return 2.0 * k * _reference_kl_vs_uniform(p.mass, p.mass.size) - m * kl_bernoulli(p_bar, q_bar)


def _reference_product_gap(p, cover):
    """The product gap with each marginal summed by axis name, axes kept in joint order."""
    n = len(p.axes)
    size = len(p.supports[0])
    total = 0.0
    for s in cover.sets:
        if not s:
            continue
        names = [p.axes[i] for i in s]
        keep = sorted(p.axes.index(name) for name in names)
        drop = tuple(i for i in range(n) if i not in keep)
        marg = p.table.sum(axis=drop) if drop else p.table
        total += _reference_kl_vs_uniform(marg.reshape(-1), size ** len(keep))
    return cover.k * _reference_kl_vs_uniform(p.table.reshape(-1), size**n) - total


def _reference_indicator_gap(p, cover):
    """The indicator gap on numpy scalars: a probs array read entry by entry."""
    n = cover.n
    probs = np.empty(n)
    for lbl, mass in zip(p.support, p.mass):
        probs[lbl.index(1)] = mass

    def kl_term(q):
        return q * math.log(q * n) if q > 0 else 0.0

    kl_full = sum(kl_term(probs[i]) for i in range(n))
    total = 0.0
    for s in cover.sets:
        if not s:
            continue
        rest = 1.0 - sum(probs[i] for i in s)
        term = sum(kl_term(probs[i]) for i in s)
        if rest > 1e-12:
            term += rest * math.log(rest * n / (n - len(s)))
        total += term
    return 9.0 * cover.k * kl_full - total


def _reference_extremal_ratio_search(n, cover, trials, seed):
    """The search evaluating every point mass, on the per-projection sum."""
    rng = np.random.Generator(np.random.PCG64(seed))
    f = math.factorial(n)

    def ratio_of(mass):
        kl_full = _reference_kl_vs_uniform(mass, f)
        if cover.k == 0 or kl_full <= 1e-15:
            return 0.0
        return _reference_marginal_kl_sum(mass, cover) / (cover.k * kl_full)

    best_ratio, best_mass, evaluations = 0.0, np.full(f, 1.0 / f), 0
    for r in range(f):
        mass = np.zeros(f)
        mass[r] = 1.0
        rho = ratio_of(mass)
        evaluations += 1
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
    return best_ratio, best_mass / best_mass.sum(), evaluations


def _kernel_rows(masses, cover):
    """_marginal_kls on the rows of ``masses``, as one list of set KLs per row."""
    rows = masses.shape[0]
    runs = _compile_runs(cover.n, [tuple(sorted(s)) for s in cover.sets if s], rows)
    kls = [run.reshape(rows, -1) for run in _marginal_kls(masses.reshape(-1), runs)]
    return [sum((run[r].tolist() for run in kls), []) for r in range(rows)]


class TestFusedMarginalKl:
    """The run kernel, the divergence table and the search against the per-projection code, exactly."""

    @staticmethod
    def _masses(rng, n):
        f = math.factorial(n)
        point = np.zeros(f)
        point[int(rng.integers(f))] = 1.0
        sparse = rng.dirichlet(np.ones(f)) * (rng.random(f) < 0.3)
        sparse[int(rng.integers(f))] += 0.5
        return [
            rng.dirichlet(np.ones(f)),
            rng.dirichlet(np.full(f, 0.05)),
            point,
            sparse / sparse.sum(),
        ]

    @staticmethod
    def _covers(rng, n):
        everything = tuple(range(n))
        drawn = [random_cover(rng, n, max_sets=8) for _ in range(6)]
        return drawn + [
            CoverFamily(n, ()),
            CoverFamily(n, (frozenset(),)),
            singleton_cover(n),
            CoverFamily(n, (frozenset(everything),) * 3 + (frozenset(),) + (frozenset([0]),) * 2),
            CoverFamily(n, drawn[0].sets + (frozenset(),) + drawn[0].sets[::-1]),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_kernel_equals_per_projection_sum(self, n):
        rng = np.random.Generator(np.random.PCG64(100 + n))
        for _ in range(20):
            masses = self._masses(rng, n)
            for cover in self._covers(rng, n):
                for mass in masses:
                    assert _kernel_rows(mass[None], cover) == [_reference_marginal_kls(mass, cover)]
                p = BijectionDistribution(n, masses[0])
                assert bijection_shearer_terms(p, cover) == (
                    _reference_kl_vs_uniform(p.mass, p.mass.size),
                    _reference_marginal_kl_sum(p.mass, cover),
                )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_row_kernel_equals_per_projection_kls_row_by_row(self, n):
        # full-support batches take the fused pass; a batch with any zero
        # entry goes set by set, its full-support rows included
        rng = np.random.Generator(np.random.PCG64(400 + n))
        for _ in range(10):
            full = [rng.dirichlet(np.ones(math.factorial(n))) for _ in range(int(rng.integers(2, 7)))]
            mixed = full + self._masses(rng, n)
            order = rng.permutation(len(mixed))
            for batch in (full, [mixed[i] for i in order]):
                masses = np.array(batch)
                for cover in self._covers(rng, n):
                    assert _kernel_rows(masses, cover) == [_reference_marginal_kls(m, cover) for m in batch]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_table_values_do_not_depend_on_what_filled_it(self, n):
        # one distribution serves 50 covers and then 50 read-k families;
        # each value equals the same call on a fresh copy
        rng = np.random.Generator(np.random.PCG64(300 + n))
        for mass in self._masses(rng, n):
            p = BijectionDistribution(n, mass)
            covers = self._covers(rng, n)
            covers += [random_cover(rng, n, max_sets=8) for _ in range(50 - len(covers))]
            families = [random_read_k_family(rng, n) for _ in range(50)]
            shared = [bijection_shearer_terms(p, cover) for cover in covers]
            shared_rk = [read_k_concentration_gap(p, fam) for fam in families]
            assert shared == [bijection_shearer_terms(BijectionDistribution(n, mass), c) for c in covers]
            assert shared_rk == [read_k_concentration_gap(BijectionDistribution(n, mass), f) for f in families]
            assert shared == [
                (_reference_kl_vs_uniform(mass, mass.size), _reference_marginal_kl_sum(mass, c)) for c in covers
            ]

    @staticmethod
    def _assert_search_equals_reference(n, trials, seeds):
        rng = np.random.Generator(np.random.PCG64(200 + n))
        covers = [singleton_cover(n), random_cover(rng, n), random_cover(rng, n), CoverFamily(n, ())]
        if n == 4:  # nine sets: a climbed restart wins where a pairwise set sum would differ
            covers.append(CoverFamily(4, (
                {0, 1, 2}, {0, 1, 2, 3}, {1, 2}, {0}, {0, 1, 2, 3}, {0, 1, 2, 3}, {1, 3}, {0, 2, 3}, {0, 1},
            )))
        if n == 5:  # the point mass wins on the covers above; a climbed restart wins on this one
            covers.append(CoverFamily(5, ({2}, {0, 1, 2, 4})))
        for seed, cover in itertools.product(seeds, covers):
            res = extremal_ratio_search(n, cover, trials=trials, seed=seed)
            ratio, witness, evaluations = _reference_extremal_ratio_search(n, cover, trials, seed)
            assert res.best_ratio == ratio
            assert res.witness.mass.tobytes() == witness.tobytes()
            assert res.evaluations == evaluations

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_search_equals_every_point_mass_search(self, n):
        # the restarts climb in lockstep; the reference climbs one at a time
        for trials in (1,) if n == 6 else (2, 3, 10):
            self._assert_search_equals_reference(n, trials, range(3))

    @pytest.mark.parametrize("n", [2, 3])
    def test_search_over_two_blocks_equals_every_point_mass_search(self, n):
        self._assert_search_equals_reference(n, SEARCH_BLOCK + 1, range(1))


class TestGapsEqualTheirReferences:
    """Each gap against the per-call code it replaced, with ==, over 200 draws per n."""

    DRAWS = 200

    @staticmethod
    def _mass(rng, size, kind):
        if kind == 0:
            return rng.dirichlet(np.ones(size))
        if kind == 1:
            point = np.zeros(size)
            point[int(rng.integers(size))] = 1.0
            return point
        sparse = rng.dirichlet(np.ones(size)) * (rng.random(size) < 0.4)
        sparse[int(rng.integers(size))] += 0.5
        return sparse / sparse.sum()

    @staticmethod
    def _family(rng, n, draw):
        if draw % 2 == 0:
            return random_read_k_family(rng, n)
        # values at the ends of [0, 1], and an empty dependency set at a random place
        functions = []
        for _ in range(int(rng.integers(0, 4))):
            dep = frozenset(np.nonzero(rng.random(n) < 0.5)[0].tolist())
            size = math.perm(n, len(dep))
            values = np.where(rng.random(size) < 0.3, rng.integers(0, 2, size), rng.random(size))
            functions.append(ReadKFunction(dep, values))
        functions.insert(int(rng.integers(len(functions) + 1)), ReadKFunction(frozenset(), [float(rng.integers(2))]))
        return ReadKFamily(n, tuple(functions))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_read_k_gap(self, n):
        rng = np.random.Generator(np.random.PCG64(500 + n))
        for draw in range(self.DRAWS):
            p = BijectionDistribution(n, self._mass(rng, math.factorial(n), draw % 3))
            fam = self._family(rng, n, draw)
            assert fam.k == CoverFamily(n, tuple(f.dependencies for f in fam.functions)).k
            assert read_k_concentration_gap(p, fam) == _reference_read_k_gap(p, fam)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_random_read_k_family_draws_the_nonzero_dependencies(self, n):
        rng = np.random.Generator(np.random.PCG64(600 + n))
        ref = np.random.Generator(np.random.PCG64(600 + n))
        for _ in range(50):
            fam = random_read_k_family(rng, n)
            want = _reference_random_read_k_family(ref, n)
            assert [(f.dependencies, f.values.tobytes()) for f in fam.functions] == [
                (dep, values.tobytes()) for dep, values in want
            ]
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_product_gap(self, n):
        rng = np.random.Generator(np.random.PCG64(700 + n))
        for draw in range(self.DRAWS):
            size = 3 if n <= 4 and draw % 4 == 3 else 2
            table = self._mass(rng, size**n, draw % 3).reshape((size,) * n)
            axes = tuple(f"x{i}" for i in rng.permutation(n))
            joint = JointDistribution(axes, (tuple(range(size)),) * n, table)
            cover = random_cover(rng, n, max_sets=8)
            assert product_shearer_gap(joint, cover) == _reference_product_gap(joint, cover)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_indicator_gap(self, n):
        rng = np.random.Generator(np.random.PCG64(800 + n))
        for draw in range(self.DRAWS):
            order = rng.permutation(n)
            mass = self._mass(rng, n, draw % 3)
            p = FiniteDistribution(tuple(indicator_support(n)[i] for i in order), mass)
            cover = random_cover(rng, n, max_sets=8)
            assert indicator_shearer_gap(p, cover) == _reference_indicator_gap(p, cover)


class TestBruteForceCrossChecks:
    """The vectorized projections against independent dict-based oracles."""

    def test_marginal_against_explicit_aggregation(self):
        import itertools

        rng = np.random.Generator(np.random.PCG64(77))
        for n in (2, 3, 4):
            p = random_bijection_distribution(rng, n)
            perms = list(itertools.permutations(range(n)))
            for _ in range(5):
                size = int(rng.integers(1, n + 1))
                coords = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
                brute = {}
                for perm, mass in zip(perms, p.mass):
                    key = tuple(perm[c] for c in coords)
                    brute[key] = brute.get(key, 0.0) + mass
                marg = marginal_distribution(p, coords)
                for label, mass in zip(marg.support, marg.mass):
                    assert mass == pytest.approx(brute.get(label, 0.0), abs=1e-14)

    def test_gap_terms_against_infotheory_kl(self):
        from permchal.shearer import bijection_shearer_terms

        rng = np.random.Generator(np.random.PCG64(78))
        for _ in range(30):
            n = int(rng.integers(2, 5))
            p = random_bijection_distribution(rng, n)
            cover = random_cover(rng, n)
            kl_full, marg_sum = bijection_shearer_terms(p, cover)
            q = BijectionDistribution.uniform(n)
            expect_full = kl_divergence(
                marginal_distribution(p, range(n)), marginal_distribution(q, range(n))
            )
            expect_sum = sum(
                kl_divergence(marginal_distribution(p, s), marginal_distribution(q, s))
                for s in cover.sets
                if s
            )
            assert kl_full == pytest.approx(expect_full, abs=1e-12)
            assert marg_sum == pytest.approx(expect_sum, abs=1e-12)

    def test_read_k_expectations_against_explicit_sum(self):
        import itertools

        rng = np.random.Generator(np.random.PCG64(79))
        n = 4
        perms = list(itertools.permutations(range(n)))
        for _ in range(20):
            p = random_bijection_distribution(rng, n)
            fam = random_read_k_family(rng, n)
            # recompute the gap from explicit per-permutation sums
            p_sum = q_sum = 0.0
            for f in fam.functions:
                coords = tuple(sorted(f.dependencies))
                table = dict(zip(marginal_distribution(p, coords).support, f.values))
                ep = eq = 0.0
                for perm, mass in zip(perms, p.mass):
                    val = float(table[tuple(perm[c] for c in coords)])
                    ep += mass * val
                    eq += val / len(perms)
                p_sum += ep
                q_sum += eq
            m = len(fam.functions)
            p_bar = min(1.0, max(0.0, p_sum / m))
            q_bar = min(1.0, max(0.0, q_sum / m))
            q_dist = BijectionDistribution.uniform(n)
            expect = 2.0 * fam.k * kl_divergence(
                marginal_distribution(p, range(n)), marginal_distribution(q_dist, range(n))
            ) - m * kl_bernoulli(p_bar, q_bar)
            got = read_k_concentration_gap(p, fam)
            assert got == pytest.approx(expect, abs=1e-10)

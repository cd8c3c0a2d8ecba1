import itertools
import math

import numpy as np
import pytest

from permchal.errors import ValidationError
from permchal.infotheory import (
    IDENTITY_TOL,
    FiniteDistribution,
    JointDistribution,
    conditional_kl,
    kl_bernoulli,
    kl_divergence,
)
from permchal.permutations import permutation_matrix, permutation_rank, permutation_unrank
from permchal.shearer import (
    HILL_CLIMB_STEPS,
    BijectionDistribution,
    CoverFamily,
    ReadKFamily,
    ReadKFunction,
    _cover_projections,
    _marginal_kl_sum,
    _projection,
    bijection_shearer_gap,
    bijection_shearer_terms,
    extremal_ratio_search,
    indicator_distribution,
    indicator_shearer_gap,
    marginal_distribution,
    pooled_deviation_gap,
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
        for rank in range(math.factorial(n)):
            assert permutation_rank(permutation_unrank(n, rank)) == rank

    def test_matrix_matches_unrank(self):
        mat = permutation_matrix(4)
        for rank in range(24):
            assert tuple(mat[rank]) == permutation_unrank(4, rank)

    def test_enumeration_cap(self):
        with pytest.raises(ValidationError):
            permutation_matrix(9)


class TestBijectionDistribution:
    def test_validation(self):
        with pytest.raises(ValidationError):
            BijectionDistribution(3, np.full(5, 0.2))
        with pytest.raises(ValidationError):
            BijectionDistribution(9, np.full(362880, 1 / 362880))

    def test_point_mass(self):
        p = BijectionDistribution.point_mass((2, 0, 1))
        assert p.mass[permutation_rank((2, 0, 1))] == 1.0


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
        with pytest.raises(ValidationError):
            CoverFamily(3, (frozenset([3]),))

    @pytest.mark.parametrize("sets", [(frozenset(["a"]),), ([0, 1.5],), ([None],), (3,)])
    def test_non_integer_elements_are_validation_errors(self, sets):
        with pytest.raises(ValidationError):
            CoverFamily(3, sets)

    def test_numpy_integer_elements_accepted(self):
        c = CoverFamily(3, (np.arange(2), [np.int64(2)]))
        assert c.sets == (frozenset([0, 1]), frozenset([2]))


class TestBijectionShearerGap:
    def test_uniform_is_zero(self):
        p = BijectionDistribution.uniform(4)
        cover = random_cover(np.random.Generator(np.random.PCG64(3)), 4)
        assert bijection_shearer_gap(p, cover, 123.0) == pytest.approx(0.0, abs=1e-12)

    def test_extremal_point_mass_n2(self):
        p = BijectionDistribution.point_mass((0, 1))
        assert bijection_shearer_gap(p, singleton_cover(2), 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_point_mass_n3(self):
        p = BijectionDistribution.point_mass((0, 1, 2))
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
        p = BijectionDistribution.point_mass((0, 1))
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

    def test_support_mismatch(self):
        bad = FiniteDistribution(((1, 1, 0), (0, 0, 1), (0, 1, 0)), np.array([0.2, 0.3, 0.5]))
        with pytest.raises(ValidationError):
            indicator_shearer_gap(bad, singleton_cover(3))


class TestPooledDeviationGap:
    def test_uniform_entries_vanish(self):
        assert pooled_deviation_gap(8, [1 / 8, 1 / 8]) == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        assert pooled_deviation_gap(8, [0.3, 0.05]) >= 0.0

    def test_random_vectors(self):
        rng = np.random.Generator(np.random.PCG64(9))
        n = 100
        for _ in range(10000):
            ell = int(rng.integers(1, 26))
            raw = rng.random(ell)
            probs = raw / raw.sum() * rng.uniform(0.05, 1.0)
            probs = np.clip(probs, 1e-12, 1 - 1e-12)
            assert pooled_deviation_gap(n, probs) >= -GAP_TOL

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            pooled_deviation_gap(8, [0.1, 0.2, 0.3])  # l > n/4
        with pytest.raises(ValidationError):
            pooled_deviation_gap(8, [0.0, 0.2])
        with pytest.raises(ValidationError):
            pooled_deviation_gap(100, [0.9, 0.2])  # sums above 1


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


def _reference_marginal_kl_sum(mass, cover):
    """The per-projection marginal KL sum: one bincount and one KL per set."""
    projections = [_projection(cover.n, tuple(sorted(s))) for s in cover.sets if s]
    return sum(
        (_reference_kl_vs_uniform(np.bincount(inverse, weights=mass, minlength=count), count)
         for inverse, count in projections),
        0.0,
    )


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


class TestFusedMarginalKl:
    """The fused kernel and the search on it against the per-projection code, exactly."""

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
                compiled = _cover_projections(cover)
                for mass in masses:
                    assert _marginal_kl_sum(mass, compiled) == _reference_marginal_kl_sum(mass, cover)
                p = BijectionDistribution(n, masses[0])
                assert bijection_shearer_terms(p, cover) == (
                    _reference_kl_vs_uniform(p.mass, p.mass.size),
                    _reference_marginal_kl_sum(p.mass, cover),
                )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_search_equals_every_point_mass_search(self, n):
        rng = np.random.Generator(np.random.PCG64(200 + n))
        covers = [singleton_cover(n), random_cover(rng, n), random_cover(rng, n), CoverFamily(n, ())]
        for seed, cover in itertools.product(range(3), covers):
            res = extremal_ratio_search(n, cover, trials=2, seed=seed)
            ratio, witness, evaluations = _reference_extremal_ratio_search(n, cover, 2, seed)
            assert res.best_ratio == ratio
            assert res.witness.mass.tobytes() == witness.tobytes()
            assert res.evaluations == evaluations


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


class TestConditionalKlLemma:
    def test_conditioning_does_not_decrease_kl_vs_product_reference(self):
        # KL(P_Y || Q_Y) <= E_{P_X} KL(P_{Y|X} || Q_{Y|X}) when Q = Q_X x Q_Y
        rng = np.random.Generator(np.random.PCG64(10))
        axes = ("X", "Y")
        supports = ((0, 1, 2), (0, 1, 2))
        for _ in range(300):
            p_table = rng.dirichlet(np.ones(9)).reshape(3, 3)
            q_table = np.outer(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3)))
            p = JointDistribution(axes, supports, p_table)
            q = JointDistribution(axes, supports, q_table / q_table.sum())
            lhs = kl_divergence(p.marginal(("Y",)).to_distribution(), q.marginal(("Y",)).to_distribution())
            rhs = conditional_kl(p, q, ("Y",), ("X",))
            assert lhs <= rhs + IDENTITY_TOL

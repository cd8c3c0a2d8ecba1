import math

import numpy as np
import pytest

from permchal.errors import ValidationError
from permchal.infotheory import (
    IDENTITY_TOL,
    INFINITE,
    FiniteDistribution,
    JointDistribution,
    kl_bernoulli,
    kl_divergence,
)
from permchal.shearer import BijectionDistribution

LN2 = math.log(2.0)


class TestFiniteDistribution:
    def test_validation(self):
        with pytest.raises(ValidationError):
            FiniteDistribution((0, 1), np.array([0.7, 0.2]))
        with pytest.raises(ValidationError):
            FiniteDistribution((0, 0), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            FiniteDistribution((0, 1), np.array([1.2, -0.2]))

    def test_mass_is_frozen(self):
        d = FiniteDistribution((0, 1), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            d.mass[0] = 0.3


MASS_BUILDERS = [
    pytest.param(lambda mass: FiniteDistribution(("a", "b"), mass), id="finite"),
    pytest.param(lambda mass: JointDistribution(("x",), (("a", "b"),), mass), id="joint"),
    pytest.param(lambda mass: BijectionDistribution(2, mass), id="bijection"),
]


@pytest.mark.parametrize("build", MASS_BUILDERS)
def test_nan_mass_rejected(build):
    with pytest.raises(ValidationError):
        build([math.nan, 1.0])


@pytest.mark.parametrize("build", MASS_BUILDERS)
@pytest.mark.parametrize(
    "mass", [("a", "b"), ["x", "y"], [[0.5], [0.25, 0.25]]], ids=["str-tuple", "str-list", "ragged"]
)
def test_non_numeric_or_ragged_mass_is_validation_error(build, mass):
    # numpy's own TypeError/ValueError must not escape the validator
    with pytest.raises(ValidationError):
        build(mass)


class TestKlDivergence:
    def test_identical(self):
        d = FiniteDistribution((0, 1, 2), np.array([0.2, 0.3, 0.5]))
        assert kl_divergence(d, d) == 0.0

    def test_point_vs_uniform(self):
        p = FiniteDistribution((0, 1), np.array([1.0, 0.0]))
        q = FiniteDistribution((0, 1), np.array([0.5, 0.5]))
        assert kl_divergence(p, q) == pytest.approx(LN2, abs=1e-12)

    def test_worked_example(self):
        p = FiniteDistribution((0, 1), np.array([0.4, 0.6]))
        q = FiniteDistribution((0, 1), np.array([0.5, 0.5]))
        assert kl_divergence(p, q) == pytest.approx(0.020135513550688863, abs=1e-12)

    def test_support_violation_is_infinite(self):
        p = FiniteDistribution((0, 1), np.array([0.4, 0.6]))
        q = FiniteDistribution((0, 1), np.array([1.0, 0.0]))
        assert kl_divergence(p, q) == INFINITE
        assert INFINITE > 1e300

    def test_mismatched_support_orderings(self):
        p = FiniteDistribution((0, 1), np.array([0.4, 0.6]))
        q = FiniteDistribution((1, 0), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            kl_divergence(p, q)

    def test_nonnegative(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(500):
            k = int(rng.integers(2, 7))
            p = FiniteDistribution(tuple(range(k)), rng.dirichlet(np.ones(k)))
            q = FiniteDistribution(tuple(range(k)), rng.dirichlet(np.ones(k)))
            assert kl_divergence(p, q) >= -1e-12

    def test_convexity(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(100):
            k = int(rng.integers(2, 6))
            ps = [rng.dirichlet(np.ones(k)) for _ in range(2)]
            qs = [rng.dirichlet(np.ones(k)) for _ in range(2)]
            for lam in np.arange(0.1, 1.0, 0.1):
                mix_p = FiniteDistribution(tuple(range(k)), lam * ps[0] + (1 - lam) * ps[1])
                mix_q = FiniteDistribution(tuple(range(k)), lam * qs[0] + (1 - lam) * qs[1])
                lhs = kl_divergence(mix_p, mix_q)
                rhs = lam * kl_divergence(
                    FiniteDistribution(tuple(range(k)), ps[0]),
                    FiniteDistribution(tuple(range(k)), qs[0]),
                ) + (1 - lam) * kl_divergence(
                    FiniteDistribution(tuple(range(k)), ps[1]),
                    FiniteDistribution(tuple(range(k)), qs[1]),
                )
                assert lhs <= rhs + IDENTITY_TOL

    def test_uniform_reference_entropy_difference(self):
        rng = np.random.Generator(np.random.PCG64(6))
        for _ in range(200):
            k = int(rng.integers(2, 8))
            p_mass = rng.dirichlet(np.ones(k))
            p = FiniteDistribution(tuple(range(k)), p_mass)
            q = FiniteDistribution(tuple(range(k)), np.full(k, 1.0 / k))
            # KL(p || uniform) = ln k - H(p)
            assert kl_divergence(p, q) == pytest.approx(
                math.log(k) + float(np.sum(p_mass * np.log(p_mass))), abs=IDENTITY_TOL
            )

    def test_data_processing(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(200):
            k = int(rng.integers(3, 8))
            p_mass = rng.dirichlet(np.ones(k))
            q_mass = rng.dirichlet(np.ones(k))
            image = rng.integers(0, 2, size=k)  # f: outcomes -> {0, 1}
            fp = np.array([p_mass[image == v].sum() for v in (0, 1)])
            fq = np.array([q_mass[image == v].sum() for v in (0, 1)])
            keep = fp + fq > 0
            kl_before = kl_divergence(
                FiniteDistribution(tuple(range(k)), p_mass),
                FiniteDistribution(tuple(range(k)), q_mass),
            )
            support = tuple(v for v in (0, 1) if keep[v])
            kl_after = kl_divergence(
                FiniteDistribution(support, fp[keep]),
                FiniteDistribution(support, fq[keep]),
            )
            assert kl_before >= kl_after - IDENTITY_TOL


class TestKlBernoulli:
    def test_equal_parameters(self):
        for p in (0.0, 0.2, 0.5, 1.0):
            assert kl_bernoulli(p, p) == 0.0

    def test_worked_example_and_pinsker(self):
        v = kl_bernoulli(0.6, 0.5)
        assert v == pytest.approx(0.020135513550688863, abs=1e-12)
        assert v >= 2 * (0.6 - 0.5) ** 2

    def test_point_vs_fair_coin(self):
        assert kl_bernoulli(1.0, 0.5) == pytest.approx(LN2, abs=1e-12)

    def test_infinite_branches(self):
        assert kl_bernoulli(0.3, 0.0) == INFINITE
        assert kl_bernoulli(0.3, 1.0) == INFINITE
        assert kl_bernoulli(0.0, 0.0) == 0.0
        assert kl_bernoulli(1.0, 1.0) == 0.0

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            kl_bernoulli(1.2, 0.5)
        with pytest.raises(ValidationError):
            kl_bernoulli(0.5, -0.1)

    def test_pinsker_on_grid(self):
        grid = np.linspace(0.01, 0.99, 50)
        for p in grid:
            for q in grid:
                assert kl_bernoulli(p, q) >= 2 * (p - q) ** 2 - 1e-12

    def test_quadratic_lower_bound(self):
        # kl(p+eps || p) >= eps^2 / (2 (p+eps))
        for p in np.arange(0.01, 0.91, 0.01):
            for eps in np.linspace(1e-4, 1.0 - p, 12):
                assert kl_bernoulli(p + eps, p) >= eps * eps / (2 * (p + eps)) - 1e-12

    def test_two_q_plus_kl_dominates_p(self):
        # p <= 2 (q + kl(p || q))
        for p in np.arange(0.05, 1.0, 0.05):
            for q in np.arange(0.05, 1.0, 0.05):
                assert p <= 2 * (q + kl_bernoulli(p, q)) + 1e-12

    def test_uniform_reference_dominates_test_mean(self):
        # kl(P || uniform Q) >= kl(E_P f || E_Q f) for f into [0, 1]
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(300):
            k = int(rng.integers(2, 9))
            p_mass = rng.dirichlet(np.ones(k))
            f = rng.random(k)
            lhs = kl_divergence(
                FiniteDistribution(tuple(range(k)), p_mass),
                FiniteDistribution(tuple(range(k)), np.full(k, 1.0 / k)),
            )
            rhs = kl_bernoulli(min(1.0, float(p_mass @ f)), min(1.0, float(f.mean())))
            assert lhs >= rhs - IDENTITY_TOL


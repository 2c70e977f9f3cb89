"""Cluster-geometry laws: closed transforms, the mixed span law, the
cycle-sum densities and the renewal CDFs with their method-of-steps kernel,
validated against finite differences, quadrature, the 60-digit alternating
sum and their own transform identities."""

import math
import time

import numpy as np
import pytest

from clusterline import (
    CapacityError,
    IntervalModel,
    ModelParams,
    cluster_length_cdf,
    cluster_length_density_at,
    cluster_length_law,
    cycle_sum_cdf,
    cycle_sum_density,
    laplace_cluster_length,
    laplace_cycle_length,
    laplace_cycle_sum,
    mean_cluster_length,
    numeric_laplace,
    pmf_complete,
    QuadratureSpec,
)
from clusterline._pn import count_prob_mp, count_prob_steps
from clusterline.quadrature import integrate
from oracles import cycle_sum_cdf_by_quadrature, span_cdf_by_quadrature

E = math.e


class TestModelParams:
    @pytest.mark.parametrize("lam,eps", [(0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, -0.5), (math.inf, 1.0), (1.0, math.nan)])
    def test_rejects_bad_parameters(self, lam, eps):
        with pytest.raises(ValueError):
            ModelParams(lam, eps)


class TestSpanTransform:
    def test_unit_mass_at_zero(self):
        assert laplace_cluster_length(ModelParams(1.0, 1.0), 0.0) == 1.0

    def test_reference_value(self):
        # mean of e^{-span} for unit intensity and radius
        assert laplace_cluster_length(ModelParams(1.0, 1.0), 1.0) == pytest.approx(
            2.0 / (1.0 + E**2), abs=1e-12
        )

    def test_large_argument_atom_dominance(self):
        # for s -> infinity the atom at the radius dominates the transform
        p = ModelParams(2.0, 0.5)
        s = 1e3
        value = laplace_cluster_length(p, s)
        atom_term = math.exp(-s * 0.5) * math.exp(-2.0 * 0.5)
        assert value == pytest.approx(atom_term, rel=1e-2)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            laplace_cluster_length(ModelParams(1.0, 1.0), -0.1)

    def test_bounded_and_decreasing(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = ModelParams(rng.uniform(0.2, 4.0), rng.uniform(0.1, 2.0))
            values = [laplace_cluster_length(p, s) for s in (0.0, 0.3, 1.0, 3.0, 10.0)]
            assert all(0.0 < v <= 1.0 for v in values)
            assert all(b < a for a, b in zip(values, values[1:]))


class TestCycleTransforms:
    def test_product_identity(self):
        # cycle transform factorizes as span transform times lam/(lam+s)
        rng = np.random.default_rng(11)
        for _ in range(100):
            lam = rng.uniform(0.2, 5.0)
            eps = rng.uniform(0.05, 2.0)
            s = rng.uniform(0.01, 8.0)
            p = ModelParams(lam, eps)
            lhs = laplace_cycle_length(p, s)
            rhs = laplace_cluster_length(p, s) * lam / (lam + s)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_reference_value(self):
        assert laplace_cycle_length(ModelParams(1.0, 1.0), 1.0) == pytest.approx(
            1.0 / (1.0 + E**2), abs=1e-12
        )

    def test_vanishing_radius_limit_is_exponential_gap(self):
        # with radius ~ 0 a cycle is just the exponential gap
        p = ModelParams(3.0, 1e-12)
        assert laplace_cycle_length(p, 1.0) == pytest.approx(0.75, abs=1e-9)

    def test_cycle_sum_is_power(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = ModelParams(rng.uniform(0.2, 4.0), rng.uniform(0.05, 1.5))
            s = rng.uniform(0.01, 5.0)
            assert laplace_cycle_sum(p, 1, s) == laplace_cycle_length(p, s)
            assert laplace_cycle_sum(p, 3, s) == pytest.approx(
                laplace_cycle_length(p, s) ** 3, rel=1e-13
            )

    def test_two_cycles_reference_value(self):
        assert laplace_cycle_sum(ModelParams(1.0, 1.0), 2, 1.0) == pytest.approx(
            (1.0 + E**2) ** -2, abs=1e-12
        )

    def test_empty_sum_convention(self):
        assert laplace_cycle_sum(ModelParams(1.0, 1.0), 0, 3.0) == 1.0

    def test_mass_at_zero(self):
        assert laplace_cycle_sum(ModelParams(2.0, 0.3), 5, 0.0) == 1.0


class TestMeanSpan:
    def finite_difference_mean(self, p: ModelParams) -> float:
        h = 1e-6
        return -(laplace_cluster_length(p, h) - laplace_cluster_length(p, 0.0)) / h

    def test_unit_case(self):
        p = ModelParams(1.0, 1.0)
        assert mean_cluster_length(p) == pytest.approx(E - 1.0, abs=1e-12)
        assert mean_cluster_length(p) == pytest.approx(self.finite_difference_mean(p), rel=1e-5)

    def test_sparse_limit_is_radius(self):
        assert mean_cluster_length(ModelParams(1e-9, 1.0)) == pytest.approx(1.0, abs=1e-8)

    def test_scaled_case(self):
        p = ModelParams(2.0, 0.5)
        assert mean_cluster_length(p) == pytest.approx((E - 1.0) / 2.0, abs=1e-12)
        assert mean_cluster_length(p) == pytest.approx(self.finite_difference_mean(p), rel=1e-5)


class TestSpanLaw:
    def test_atom(self):
        law = cluster_length_law(ModelParams(2.0, 0.5))
        assert law.atom_location == 0.5
        assert law.atom_mass == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert law.support_lower == 0.5

    def test_density_vanishes_below_radius(self):
        law = cluster_length_law(ModelParams(1.0, 1.0))
        assert law.density(0.9) == 0.0
        assert cluster_length_density_at(ModelParams(1.0, 1.0), 0.9) == 0.0

    def test_density_plateau_just_above_radius(self):
        # one extra point within reach: density is lam e^{-lam eps} there
        p = ModelParams(1.0, 1.0)
        law = cluster_length_law(p)
        assert law.density(1.5) == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert cluster_length_density_at(p, 1.5) == pytest.approx(math.exp(-1.0), abs=1e-12)

    @pytest.mark.parametrize("lam,eps", [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
    def test_scalar_density_is_the_law_density(self, lam, eps):
        p = ModelParams(lam, eps)
        law = cluster_length_law(p)
        lattice = [k * eps for k in range(6)]
        for x in lattice + [x + 0.37 * eps for x in lattice] + [3 * eps - 1e-13, 3 * eps + 1e-13]:
            value = cluster_length_density_at(p, x)
            assert isinstance(value, float)
            assert value == law.density(x)

    @pytest.mark.parametrize("lam,eps", [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
    def test_total_mass(self, lam, eps):
        p = ModelParams(lam, eps)
        law = cluster_length_law(p)
        cut = eps + 20.0 * mean_cluster_length(p)
        lattice = [eps + k * eps for k in range(1, int(cut / eps) + 1)]
        mass = law.atom_mass + integrate(law.density, eps, cut, abs_tol=1e-10, breakpoints=lattice)
        assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("lam,eps", [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_numeric_transform_matches_closed_form(self, lam, eps, s):
        p = ModelParams(lam, eps)
        law = cluster_length_law(p)
        cut = eps + 20.0 * mean_cluster_length(p) + 40.0 / min(s, lam)
        spec = QuadratureSpec(abs_tol=1e-10, upper_cut=cut)
        lattice = [k * eps for k in range(1, int(cut / eps) + 1)]
        numeric = law.atom_mass * math.exp(-s * law.atom_location) + numeric_laplace(
            law.density, s, spec, breakpoints=lattice
        )
        assert numeric == pytest.approx(laplace_cluster_length(p, s), abs=1e-7)


class TestCycleSumDensity:
    def test_zero_at_and_below_radius(self):
        p = ModelParams(1.0, 1.0)
        assert cycle_sum_density(p, 1, 1.0) == 0.0
        assert cycle_sum_density(p, 1, 0.4) == 0.0

    def test_plateau_value(self):
        # for one cycle just past the radius the density is lam e^{-lam eps}
        assert cycle_sum_density(ModelParams(1.0, 1.0), 1, 1.5) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_normalization_two_cycles(self):
        # truncation from the tail decay rate: ~1e-10 mass left out, well
        # under the 1e-8 target and before kernel noise sets in
        p = ModelParams(1.0, 0.5)
        from oracles import span_tail_rate

        cut = 1.5 + 2 * (mean_cluster_length(p) + 1.0) + 23.0 / min(span_tail_rate(p), 1.0)
        lattice = [0.5 * k for k in range(1, int(cut / 0.5) + 1)]
        total = integrate(
            lambda x: np.asarray([cycle_sum_density(p, 2, float(v)) for v in np.atleast_1d(x)]),
            0.5,
            cut,
            abs_tol=1e-9,
            breakpoints=lattice,
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            cycle_sum_density(ModelParams(1.0, 1.0), 0, 2.0)


class TestTransformAgainstSimulation:
    def test_span_transform_matches_sample_mean(self):
        # empirical mean of e^{-span} against the closed transform
        from clusterline import SampleConfig, estimate

        p = ModelParams(1.0, 1.0)
        spans = estimate(p, "b_law", 1.0, SampleConfig(seed=1618, replications=100_000))
        empirical = float(np.mean(np.exp(-spans)))
        sigma = float(np.std(np.exp(-spans))) / math.sqrt(spans.size)
        assert abs(empirical - laplace_cluster_length(p, 1.0)) <= 4.0 * sigma

    def test_cycle_sum_transform_matches_sample_mean(self):
        from clusterline import SampleConfig, estimate

        p = ModelParams(1.0, 1.0)
        sums = estimate(p, "u_law", 1.0, SampleConfig(seed=33, replications=100_000), cycle_order=2)
        empirical = float(np.mean(np.exp(-sums)))
        sigma = float(np.std(np.exp(-sums))) / math.sqrt(sums.size)
        assert abs(empirical - laplace_cycle_sum(p, 2, 1.0)) <= 4.0 * sigma


class TestCdfBuilders:
    def test_span_cdf_jump_at_radius(self):
        p = ModelParams(1.0, 1.0)
        cdf = cluster_length_cdf(p)
        assert cdf(0.999999) == 0.0
        assert cdf(1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert cdf(60.0) == pytest.approx(1.0, abs=1e-10)

    def test_span_cdf_monotone(self):
        cdf = cluster_length_cdf(ModelParams(2.0, 0.5))
        xs = np.linspace(0.0, 30.0, 800)
        assert np.all(np.diff(np.asarray(cdf(xs))) >= -1e-12)

    def test_cycle_cdf_continuous_and_normalized(self):
        cdf = cycle_sum_cdf(ModelParams(1.0, 1.0), 2)
        assert cdf(1.0) == 0.0
        assert cdf(200.0) == pytest.approx(1.0, abs=1e-10)
        xs = np.linspace(0.5, 60.0, 500)
        assert np.all(np.diff(np.asarray(cdf(xs))) >= -1e-12)


class TestStepsKernel:
    """count_prob_steps against the 60-digit alternating sum, which shares
    no code with it."""

    @pytest.mark.parametrize("lam,eps", [(1.0, 1.0), (4.0, 1.0), (2.0, 3.0), (0.3, 1.0), (6.0, 0.5)])
    def test_matches_sixty_digit_sum(self, lam, eps):
        xs = eps * np.array([0.0, 0.4, 1.0, 1.5, 2.0, 7.3, 20.0, 80.0, 151.7, 300.0])
        steps = count_prob_steps(lam, eps, xs, 3)
        for i, x in enumerate(xs):
            for n in range(4):
                exact, _ = count_prob_mp(lam, eps, float(x), n, 60)
                assert abs(steps[n, i] - exact) <= 1e-14, (x, n)

    def test_shape_and_edges(self):
        xs = np.array([[-np.inf, -1.0, 0.5], [np.nan, 1e6, np.inf]])
        out = count_prob_steps(1.0, 1.0, xs, 1)
        assert out.shape == (2, 2, 3)
        assert out[0, 0].tolist() == [1.0, 1.0, 1.0] and out[1, 0].tolist() == [0.0, 0.0, 0.0]
        assert np.isnan(out[:, 1, 0]).all()
        assert out[:, 1, 1:].tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_query_past_the_step_budget_raises(self):
        # 1e7 steps of eps = 1e-7, and p0(x) >= e^{-lam x} cannot reach 2^-60 by x = 1
        with pytest.raises(CapacityError, match="STEP_TABLE_BUDGET"):
            count_prob_steps(1.0, 1e-7, np.array([0.5, 1.0]), 0)
        with pytest.raises(CapacityError):
            cycle_sum_cdf(ModelParams(1.0, 1e-7), 2)(1.0)
        # lam eps = 20: p0 >= 1 - a x keeps every step of the budget above 1/2
        with pytest.raises(CapacityError):
            cluster_length_cdf(ModelParams(20.0, 1.0))(np.inf)
        # here the budget is built first: 32768 steps of p_0..p_15 end before
        # P(N <= 15) falls below 2^-60
        with pytest.raises(CapacityError, match="32768 steps"):
            count_prob_steps(1.0, 2e-3, np.array([1e4]), 15)
        # a point inside the budget still answers
        assert count_prob_steps(1.0, 1e-7, np.array([0.01]), 0)[0, 0] == pytest.approx(math.exp(-0.01), rel=1e-5)


RENEWAL_BANDS = [0.5, 1.0, 2.0, 4.0]


class TestRenewalCdfs:
    """The span and cycle-sum CDFs are finite sums of the method-of-steps
    profile; the quadrature oracle integrates the alternating-sum densities
    instead."""

    @staticmethod
    def grid(params):
        # out to four mean cycles: beyond them the oracle's densities carry
        # cancellation noise of the raw alternating sums (about 1e-9 at
        # twelve mean cycles when lam eps = 4), while the kernel stays exact
        mean_cycle = mean_cluster_length(params) + 1.0 / params.intensity
        return np.linspace(0.0, params.radius + 4.0 * mean_cycle, 500)

    @pytest.mark.parametrize("lam_eps", RENEWAL_BANDS)
    @pytest.mark.parametrize("lam", [0.7, 2.0])
    def test_span_cdf_matches_quadrature(self, lam_eps, lam):
        p = ModelParams(lam, lam_eps / lam)
        xs = self.grid(p)
        assert np.max(np.abs(cluster_length_cdf(p)(xs) - span_cdf_by_quadrature(p)(xs))) <= 1e-12

    @pytest.mark.parametrize("lam_eps", RENEWAL_BANDS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cycle_sum_cdf_matches_quadrature(self, lam_eps, n):
        p = ModelParams(0.7, lam_eps / 0.7)
        xs = self.grid(p)
        assert np.max(np.abs(cycle_sum_cdf(p, n)(xs) - cycle_sum_cdf_by_quadrature(p, n)(xs))) <= 1e-12

    def test_far_limits(self):
        for p in (ModelParams(1.0, 1.0), ModelParams(3.0, 2.0)):
            for cdf in (cluster_length_cdf(p), cycle_sum_cdf(p, 1), cycle_sum_cdf(p, 3)):
                assert cdf(1e6) == 1.0
                assert cdf(np.inf) == 1.0
                assert cdf(-np.inf) == 0.0
                assert cdf(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]

    def test_lam_eps_ten_is_fast_and_exact(self):
        # the quadrature builders took about 95 s per span CDF here
        lam, eps = 10.0, 1.0
        p = ModelParams(lam, eps)
        mean_span = mean_cluster_length(p)
        mean_cycle = mean_span + 1.0 / lam
        probe = np.linspace(0.0, eps + 4.0 * mean_cycle, 500)
        start = time.perf_counter()
        cdfs = {0: cluster_length_cdf(p), **{n: cycle_sum_cdf(p, n) for n in (1, 2, 3)}}
        curves = [cdf(probe) for cdf in cdfs.values()]
        assert time.perf_counter() - start < 2.0
        for curve in curves:
            assert np.all(np.diff(curve) >= -1e-12) and curve[0] == 0.0

        def p_n(x, n):
            if x <= 0.0:
                return 1.0 if n == 0 else 0.0
            return pmf_complete(IntervalModel(p, x), n)

        for f in (0.25, 0.5, 1.0, 2.0, 4.0):
            x = eps + f * mean_span
            renewal = 1.0 - p_n(x, 0) + math.exp(-lam * eps) * p_n(x - eps, 0)
            assert cdfs[0](x) == pytest.approx(renewal, abs=1e-9)
            for n in (1, 2, 3):
                x = eps + f * n * mean_cycle
                renewal = 1.0 - math.fsum(p_n(x, k) for k in range(n))
                assert cdfs[n](x) == pytest.approx(renewal, abs=1e-9)

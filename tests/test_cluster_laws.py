"""Cluster-geometry laws: closed transforms, the mixed span law, the
cycle-sum densities and the renewal CDFs with their method-of-steps kernel,
validated against finite differences, quadrature, the 60-digit alternating
sum and their own transform identities."""

import math
import time
import tracemalloc
from array import array
from fractions import Fraction

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
from clusterline import _pn
from clusterline._pn import (
    _CACHE_VALUES,
    _STEP_DROP,
    _STEP_TABLES,
    STEP_TABLE_BUDGET,
    _StepTable,
    count_prob_at,
    count_prob_steps,
)
from clusterline.quadrature import integrate_adaptive
from oracles import (
    cycle_sum_cdf_by_quadrature,
    cycle_sum_density_by_digits,
    p_n_by_digits,
    span_cdf_by_quadrature,
    span_density_by_digits,
    span_density_by_series,
)

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

    def test_reads_inf_past_the_exponent_range(self):
        # e^{lam eps} overflows a double above lam eps = 709.78
        assert mean_cluster_length(ModelParams(1.0, 709.0)) == pytest.approx(math.expm1(709.0))
        assert mean_cluster_length(ModelParams(1.0, 710.0)) == math.inf
        assert mean_cluster_length(ModelParams(2.0, 400.0)) == math.inf


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
        mass = law.atom_mass + integrate_adaptive(law.density, eps, cut, abs_tol=1e-10, breakpoints=lattice)[0]
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
        total = integrate_adaptive(
            lambda x: np.asarray([cycle_sum_density(p, 2, float(v)) for v in np.atleast_1d(x)]),
            0.5,
            cut,
            abs_tol=1e-9,
            breakpoints=lattice,
        )[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            cycle_sum_density(ModelParams(1.0, 1.0), 0, 2.0)

    @pytest.mark.parametrize("lam_eps", [0.5, 1.0, 2.0, 4.0, 6.0])
    def test_matches_the_oracle_to_twenty_mean_cycles(self, lam_eps):
        # the raw alternating sum was off by up to 2.5e10 relative on such grids
        p = ModelParams(1.0, lam_eps)
        mean_cycle = mean_cluster_length(p) + 1.0 / p.intensity
        for x in np.linspace(p.radius, p.radius + 20.0 * mean_cycle, 41)[1:]:
            true = cycle_sum_density_by_digits(p, float(x), 2)
            assert abs(cycle_sum_density(p, 2, float(x)) - true) <= 1e-13 * true, x


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
    """count_prob_steps against the 60-digit alternating sum of the tests'
    oracles, which shares no code with the package."""

    @pytest.mark.parametrize("lam,eps", [(1.0, 1.0), (4.0, 1.0), (2.0, 3.0), (0.3, 1.0), (6.0, 0.5)])
    def test_matches_sixty_digit_sum(self, lam, eps):
        xs = eps * np.array([0.0, 0.4, 1.0, 1.5, 2.0, 7.3, 20.0, 80.0, 151.7, 300.0])
        steps = count_prob_steps(lam, eps, xs, 3)
        for i, x in enumerate(xs):
            for n in range(4):
                exact = float(p_n_by_digits(ModelParams(lam, eps), float(x), n, dps=60))
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

    @pytest.mark.parametrize("n_max", [0, 1, 2, 3])
    def test_a_point_reads_the_same_bits_in_any_call(self, n_max):
        # unsorted, with repeats, lattice points (t = 0) and points past the
        # 2^-60 stop (step 47 to 65 here)
        rng = np.random.default_rng(21 + n_max)
        spread = rng.uniform(0.0, 80.0, 3920)
        lattice = np.arange(80.0)
        xs = rng.permutation(np.concatenate([spread, lattice, rng.choice(spread, 1000)]))
        assert xs.size == 5000
        whole = count_prob_steps(1.0, 1.0, xs, n_max)
        assert not whole[:, xs >= 70.0].any()
        # every column against calls of other sizes; every 40th column and
        # every fourth lattice point or point past the stop against one-point calls
        bounds = [0, 1, 2, 17, 400, 1500, 5000]
        parts = [count_prob_steps(1.0, 1.0, xs[lo:hi], n_max) for lo, hi in zip(bounds, bounds[1:])]
        assert np.concatenate(parts, axis=1).tobytes() == whole.tobytes()
        alone = sorted(set(range(0, 5000, 40)) | set(np.flatnonzero((xs % 1.0 == 0.0) | (xs >= 70.0))[::4]))
        for i in alone:
            assert count_prob_steps(1.0, 1.0, xs[i : i + 1], n_max).tobytes() == whole[:, i].tobytes(), xs[i]

    @staticmethod
    def lag_matrices(table: _StepTable, width: int) -> np.ndarray:
        """G_m = h^m / m! (S - I)^m for m <= the table's degree, from its lag rows:
        entry (i, i - l) of G_m is g(m, l), stored at lags[l][degree - m]."""
        d, rows = table.degree, np.arange(width)
        lags = np.zeros((d + 1, width, width))
        for l, row in enumerate(table.lags):
            lags[l:, rows[l:], rows[: width - l]] = np.array(row[::-1])[:, None]
        return lags

    @pytest.mark.parametrize("lam_eps", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_lag_table_matches_matrix_powers(self, lam_eps, width):
        h = lam_eps * math.exp(-lam_eps)
        table = _StepTable(h, width)
        diff = h * (np.eye(width, k=-1) - np.eye(width))
        powers = np.stack([np.linalg.matrix_power(diff, m) / math.factorial(m) for m in range(table.degree + 1)])
        np.testing.assert_array_max_ulp(self.lag_matrices(table, width), powers, maxulp=4)

    @pytest.mark.parametrize("lam_eps", [0.5, 1.0, 2.0, 4.0, 6.0])
    def test_lag_table_is_the_binomial_table_to_three_ulp(self, lam_eps):
        # at lam eps >= 2 the repeated squarings of matrix_power are
        # themselves 5 to 8 ulp from the exact entries
        h = lam_eps * math.exp(-lam_eps)
        table = _StepTable(h, 6)
        d, lags = table.degree, self.lag_matrices(table, 6)
        for m in range(d + 1):
            for i in range(6):
                for j in range(6):
                    k = i - j
                    exact = Fraction(h) ** m / math.factorial(m) * (-1) ** (m - k) * math.comb(m, k) if 0 <= k <= m else 0
                    assert abs(Fraction(lags[m, i, j]) - exact) <= 3 * Fraction(np.spacing(abs(float(exact)))), (m, i, j)
        # the degree is the first whose dropped rows all sum to under 3e-29:
        # every lag row of G_m sums to at most (2h)^m / m!
        row_bound = lambda m: (2 * Fraction(h)) ** m / math.factorial(m)  # noqa: E731
        assert row_bound(d) >= Fraction(_STEP_DROP) > row_bound(d + 1)
        assert all(row_bound(m) < Fraction(_STEP_DROP) for m in range(d + 1, d + 60))

    @pytest.mark.parametrize("points,n_max", [(40_000, 0), (20_000, 2)])
    def test_peak_memory_is_a_few_rows_of_points(self, points, n_max):
        # the sizes of the Kolmogorov-Smirnov probes of the span and cycle-sum
        # CDFs: a few (n_max + 1) x N arrays, never one per Horner coefficient
        xs = np.linspace(0.0, 30.0, points)
        count_prob_steps(1.0, 1.0, xs, n_max)
        tracemalloc.start()
        try:
            count_prob_steps(1.0, 1.0, xs, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


class TestStepTables:
    """The cached per-model step tables that the CDFs, the span density and
    the cycle-sum density share."""

    @pytest.mark.parametrize("lam_eps", [0.5, 1.0, 6.0])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_a_table_extended_in_pieces_is_the_table_built_at_once(self, lam_eps, width):
        h = lam_eps * math.exp(-lam_eps)
        whole, pieces = _StepTable(h, width), _StepTable(h, width)
        whole.extend(600, False)
        for steps in (1, 2, 17, 18, 300, 599, 600):
            pieces.extend(steps, False)
        assert whole.steps == pieces.steps == 600 and whole.stop == pieces.stop
        assert [column.tobytes() for column in pieces.columns] == [column.tobytes() for column in whole.columns]

    @pytest.mark.parametrize("lam_eps", [0.5, 1.0, 6.0])
    def test_a_table_grown_by_reads_is_the_table_built_at_once(self, lam_eps):
        # count_prob_at grows the cached table a step at a time, count_prob_steps
        # builds ahead to the tail stop, and one step is cut off after its first
        # column, as a deadline's exception would cut it
        class Interrupt(BaseException):
            pass

        class TrippedColumn(array):
            def append(self, value):
                self.append = super().append  # the next build's appends go through
                raise Interrupt

        lam, width = 1.3, 3
        eps = lam_eps / lam
        whole = _StepTable(lam * math.exp(-lam * eps) * eps, width)
        whole.extend(300, False)
        _STEP_TABLES.clear()
        try:
            for j in range(300):
                if j == 41:
                    table = _STEP_TABLES.get(lam, eps, width, 0, False)
                    table.columns[1] = TrippedColumn("d", table.columns[1])
                    with pytest.raises(Interrupt):
                        count_prob_at(lam, eps, eps * (table.steps + 1.5), width - 1)
                    assert len(table.columns[0]) > len(table.columns[1])
                count_prob_at(lam, eps, eps * (j + 0.5), width - 1)
                if j % 7 == 0:
                    count_prob_steps(lam, eps, np.array([eps * (j + 3.25)]), width - 1)
            table = _STEP_TABLES.get(lam, eps, width, 300, False)
        finally:
            _STEP_TABLES.clear()
        assert table.steps == 300 and table.stop == whole.stop
        assert [column.tobytes() for column in table.columns] == [column.tobytes() for column in whole.columns]

    @pytest.mark.parametrize("lam_eps", [0.5, 1.0, 6.0])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_scalar_reads_are_the_array_reads_to_a_few_ulp(self, lam_eps, n):
        lam = 1.3
        eps = lam_eps / lam
        _STEP_TABLES.clear()
        try:
            count_prob_steps(lam, eps, np.array([1e4 * eps]), n)  # builds to the tail stop
            stop = _STEP_TABLES.get(lam, eps, n + 1, 0, False).stop
            xs = np.linspace(0.0, stop * eps, 16 * stop + 1)[:-1]
            at = np.array([count_prob_at(lam, eps, float(x), n) for x in xs])
            steps = count_prob_steps(lam, eps, xs, n)[n]
        finally:
            _STEP_TABLES.clear()
        assert steps.min() < 1e-17
        np.testing.assert_array_max_ulp(at, steps, maxulp=4)

    def test_reads_do_not_depend_on_how_the_table_grew(self):
        p = ModelParams(0.8, 1.5)
        xs = np.linspace(0.0, 120.0, 301)
        _STEP_TABLES.clear()
        grown = [cycle_sum_density(p, 2, float(x)).hex() for x in xs]  # one step at a time
        _STEP_TABLES.clear()
        cycle_sum_density(p, 2, float(xs[-1]))  # every step at once
        assert [cycle_sum_density(p, 2, float(x)).hex() for x in xs] == grown

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cdf_bits_do_not_depend_on_a_density_extending_the_table(self, n):
        # lam = eps = 1: the tables stop at steps 47 to 65, and the densities
        # extend them to step 149
        p = ModelParams(1.0, 1.0)
        xs = np.linspace(0.0, 80.0, 2001)
        _STEP_TABLES.clear()
        alone = [cycle_sum_cdf(p, n)(xs).tobytes(), cluster_length_cdf(p)(xs).tobytes()]
        _STEP_TABLES.clear()
        cycle_sum_density(p, n, 150.0)
        cycle_sum_density(p, 1, 150.0)
        assert [cycle_sum_cdf(p, n)(xs).tobytes(), cluster_length_cdf(p)(xs).tobytes()] == alone

    def test_the_cache_holds_at_most_its_budget(self, monkeypatch):
        # budgets cut 32-fold, as tracemalloc slows the builds about 13-fold:
        # 200 models of about 230 values each, then four of 10 001 values
        # (lam eps >= 20: degree 3), so without eviction the cache would
        # hold about 520 kB and then 850 kB
        monkeypatch.setattr(_pn, "STEP_TABLE_BUDGET", STEP_TABLE_BUDGET // 32)
        monkeypatch.setattr(_pn, "_CACHE_VALUES", _CACHE_VALUES // 32)
        _STEP_TABLES.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(200):
                count_prob_at(20.0 + i / 64, 1.0, 100.0, 1)
            small = tracemalloc.get_traced_memory()[0] - before
            for lam in (20.0, 21.0, 22.0, 23.0):
                count_prob_at(lam, 1.0, 1e4, 0)
            large = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            _STEP_TABLES.clear()
        # 8 bytes a value, up to an eighth more for the arrays' growth, and
        # the headers of the tables kept
        assert small < 1.125 * 8 * _pn._CACHE_VALUES + 32 * 1024
        assert large < 1.125 * 8 * _pn.STEP_TABLE_BUDGET + 32 * 1024

    def test_density_past_the_step_budget_raises_before_building(self):
        # 1e6 steps of eps = 1e-6 against 2^19 / 2 for the width-2 table
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="STEP_TABLE_BUDGET"):
            cycle_sum_density(ModelParams(1.0, 1e-6), 2, 1.0)
        assert time.perf_counter() - start < 1.0


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


class TestSpanDensity:
    """The span density is the renewal CDF's derivative, with p0' from the
    delay equation on the method-of-steps profile."""

    @pytest.mark.parametrize("lam_eps", [0.5, 1.0, 2.0, 4.0, 6.0])
    def test_matches_eighty_digits_to_ten_mean_spans(self, lam_eps):
        # the alternating-sum route was off by 2.8e-6 (lam eps = 0.5) to
        # 1.4e-8 relative on these grids
        p = ModelParams(1.0, lam_eps)
        xs = np.linspace(p.radius, p.radius + 10.0 * mean_cluster_length(p), 9)[1:]
        for x, value in zip(xs, cluster_length_law(p).density(xs)):
            true = float(span_density_by_digits(p, x))
            assert abs(value - true) <= 5e-9 * true, x

    @pytest.mark.parametrize("lam_eps", RENEWAL_BANDS)
    @pytest.mark.parametrize("lam", [0.7, 2.0])
    def test_matches_series_oracle(self, lam_eps, lam):
        p = ModelParams(lam, lam_eps / lam)
        xs = np.linspace(0.0, p.radius + 4.0 * mean_cluster_length(p), 500)
        assert np.max(np.abs(cluster_length_law(p).density(xs) - span_density_by_series(p)(xs))) <= 1e-12

    def test_infinite_argument_reads_zero(self):
        p = ModelParams(1.0, 1.0)
        assert cluster_length_law(p).density(np.inf) == 0.0
        assert cluster_length_density_at(p, np.inf) == 0.0

    def test_span_density_and_the_cdfs_refuse_nan(self):
        p = ModelParams(1.0, 1.0)
        calls = [
            cluster_length_law(p).density,
            lambda x: cluster_length_density_at(p, x),
            cluster_length_cdf(p),
            cycle_sum_cdf(p, 2),
        ]
        for call in calls:
            for x in (math.nan, np.array([1.5, math.nan, 3.0])):
                with pytest.raises(ValueError, match="nan"):
                    call(x)

    def test_cycle_sum_density_reads_zero_at_infinity_and_refuses_nan(self):
        p = ModelParams(1.0, 1.0)
        assert cycle_sum_density(p, 2, math.inf) == 0.0
        with pytest.raises(ValueError, match="nan"):
            cycle_sum_density(p, 2, math.nan)

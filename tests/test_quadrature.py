"""Adaptive quadrature against closed forms and an independent scipy
oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate as sci

from clusterline import QuadratureError
from clusterline.quadrature import PanelCdf, integrate_adaptive


class TestIntegrateAdaptive:
    def test_exponential_closed_form(self):
        value = integrate_adaptive(lambda x: np.exp(-2.0 * x), 0.0, 40.0, abs_tol=1e-12)[0]
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_polynomial_exact(self):
        value = integrate_adaptive(lambda x: 3.0 * x**2, 0.0, 2.0)[0]
        assert value == pytest.approx(8.0, abs=1e-12)

    def test_empty_interval(self):
        assert integrate_adaptive(lambda x: x, 1.0, 1.0)[0] == 0.0

    def test_kinked_integrand_with_breakpoints(self):
        f = lambda x: np.where(x < 1.0, x, 2.0 - x)  # tent, kink at 1
        value = integrate_adaptive(f, 0.0, 2.0, abs_tol=1e-12, breakpoints=[1.0])[0]
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy_oracle(self):
        f = lambda x: np.exp(-x) * np.cos(3.0 * x) + 0.2 * x
        mine = integrate_adaptive(f, 0.0, 6.0, abs_tol=1e-11)[0]
        ref, _ = sci.quad(lambda x: math.exp(-x) * math.cos(3.0 * x) + 0.2 * x, 0.0, 6.0, epsabs=1e-13)
        assert mine == pytest.approx(ref, abs=1e-10)

    def test_budget_exhaustion(self):
        wild = lambda x: np.sin(1.0 / np.maximum(x, 1e-12))
        with pytest.raises(QuadratureError):
            integrate_adaptive(wild, 0.0, 1.0, abs_tol=1e-14, max_refinements=5)[0]

    def test_integrand_calls_stay_within_the_chunk_bound(self):
        sizes = []

        def spy(x):
            sizes.append(x.size)
            return np.cos(x)

        # 400 panels, each with both halves: one level of 18000 nodes
        value = integrate_adaptive(spy, 0.0, 4.0, breakpoints=np.linspace(0.0, 4.0, 401))[0]
        assert value == pytest.approx(math.sin(4.0), abs=1e-12)
        assert sum(sizes) == 400 * 3 * 15
        assert max(sizes) <= 4096

    def test_error_estimate_reported(self):
        _, err, sup = integrate_adaptive(lambda x: np.exp(-x), 0.0, 10.0, abs_tol=1e-10)
        assert 0.0 <= err <= 1e-10
        # nodes are interior, so the supremum probe sits just below f(0)
        assert 0.9 <= sup <= 1.0


def four_rows(x):
    return np.stack([np.exp(-x), np.cos(3.0 * x), x**2, np.where(x < 1.0, x, 2.0 - x)])


class TestRowValuedIntegrand:
    def test_each_row_matches_its_scalar_integration(self):
        values, errs, sups = integrate_adaptive(four_rows, 0.0, 2.0, abs_tol=1e-11, breakpoints=[1.0])
        assert values.shape == errs.shape == sups.shape == (4,)
        for row in range(4):
            alone = integrate_adaptive(lambda x: four_rows(x)[row], 0.0, 2.0, abs_tol=1e-11, breakpoints=[1.0])[0]
            assert abs(values[row] - alone) <= 1e-11, row
        exact = [-math.expm1(-2.0), math.sin(6.0) / 3.0, 8.0 / 3.0, 1.0]
        np.testing.assert_allclose(values, exact, rtol=0.0, atol=1e-11)

    def test_each_row_keeps_its_own_tolerance(self):
        def rows(x):
            return np.stack([np.exp(-x), np.sqrt(x)])

        exact = 2.0 / 3.0 * 2.0**1.5
        loose = integrate_adaptive(rows, 0.0, 2.0, abs_tol=np.array([1e-12, 1e-5]))
        tight = integrate_adaptive(rows, 0.0, 2.0, abs_tol=np.array([1e-5, 1e-12]))
        assert 1e-12 < abs(loose[0][1] - exact) <= loose[1][1] <= 1e-5
        assert abs(tight[0][1] - exact) <= tight[1][1] <= 1e-12

    def test_one_dimensional_integrand_returns_floats(self):
        out = integrate_adaptive(np.cos, 0.0, 2.0)
        assert all(type(v) is float for v in out)

    def test_budget_error_names_the_worst_open_panel(self):
        def rows(x):
            return np.stack([np.exp(-x), np.sin(1.0 / np.maximum(x, 1e-12))])

        with pytest.raises(QuadratureError, match="worst open panel error") as caught:
            integrate_adaptive(rows, 0.0, 1.0, abs_tol=1e-14, max_refinements=5)
        worst = caught.value.last_estimate
        assert 1e-14 < worst < math.inf
        assert f"worst open panel error {worst:.3e}" in str(caught.value)

    def test_memory_of_four_rows_over_eight_thousand_panels_stays_flat(self):
        # one level of 8000 panels is evaluated a block of panels at a time,
        # so no array holds every panel's rows
        knots = np.linspace(0.0, 8.0, 8001)
        integrate_adaptive(four_rows, 0.0, 8.0, breakpoints=knots)
        tracemalloc.start()
        try:
            values = integrate_adaptive(four_rows, 0.0, 8.0, breakpoints=knots)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values[2] == pytest.approx(512.0 / 3.0, abs=1e-9)
        assert peak < 1.25 * 2**20, f"peak {peak / 2**20:.2f} MB"


class TestPanelCdf:
    def test_uniform_density(self):
        cdf = PanelCdf(lambda x: np.ones_like(x), 0.0, 2.0)
        assert cdf.total == pytest.approx(2.0, abs=1e-13)
        assert cdf(1.0) == pytest.approx(1.0, abs=1e-13)
        assert cdf(-5.0) == 0.0
        assert cdf(9.0) == pytest.approx(2.0, abs=1e-13)

    def test_matches_scipy_on_smooth_density(self):
        dens = lambda x: np.exp(-x) * (1.0 + np.sin(x) ** 2)
        cdf = PanelCdf(dens, 0.0, 8.0, panels_per_segment=32)
        for t in (0.3, 1.7, 4.4, 7.9):
            ref, _ = sci.quad(lambda u: math.exp(-u) * (1.0 + math.sin(u) ** 2), 0.0, t, epsabs=1e-13)
            assert cdf(t) == pytest.approx(ref, abs=1e-11)

    def test_vectorized_queries_sorted(self):
        cdf = PanelCdf(lambda x: np.exp(-x), 0.0, 10.0)
        xs = np.linspace(-1.0, 11.0, 57)
        vals = cdf(xs)
        assert np.all(np.diff(vals) >= -1e-14)

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError):
            PanelCdf(lambda x: x, 2.0, 2.0)

"""Forward-transform quadrature against closed forms.

The quadrature grid is the arbiter for the count-probability transform's
denominator exponent: the n+1 variant must match to 1e-7 while the
n variant misses by a wide margin.
"""

import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from clusterline import (
    IntervalModel,
    ModelParams,
    QuadratureError,
    QuadratureSpec,
    count_transform_residuals,
    laplace_cluster_length,
    laplace_cycle_length,
    laplace_moment_closed,
    laplace_pmf_closed,
    mean_complete,
    moment_complete,
    numeric_laplace,
    spec_for_count_transform,
)

E = math.e


class TestNumericLaplace:
    def test_exponential(self):
        spec = QuadratureSpec(abs_tol=1e-10, upper_cut=80.0)
        value = numeric_laplace(lambda x: np.exp(-x), 1.0, spec)
        assert value == pytest.approx(0.5, abs=1e-10)

    def test_constant(self):
        spec = QuadratureSpec(abs_tol=1e-10, upper_cut=60.0)
        assert numeric_laplace(lambda x: np.ones_like(np.asarray(x, dtype=float)), 2.0, spec) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_linearity(self):
        spec = QuadratureSpec(abs_tol=1e-11, upper_cut=70.0)
        f = lambda x: np.exp(-0.5 * x)
        g = lambda x: np.exp(-x) * np.cos(x)
        combo = lambda x: 2.0 * f(x) + 3.0 * g(x)
        lhs = numeric_laplace(combo, 1.3, spec)
        rhs = 2.0 * numeric_laplace(f, 1.3, spec) + 3.0 * numeric_laplace(g, 1.3, spec)
        assert lhs == pytest.approx(rhs, abs=2e-11)

    def test_requires_positive_argument(self):
        spec = QuadratureSpec()
        with pytest.raises(ValueError):
            numeric_laplace(lambda x: np.ones_like(x), 0.0, spec)

    def test_tail_budget_error(self):
        # constant function with a cut so small the tail bound eats the budget
        spec = QuadratureSpec(abs_tol=1e-10, upper_cut=1.0)
        with pytest.raises(QuadratureError):
            numeric_laplace(lambda x: np.ones_like(np.asarray(x, dtype=float)), 0.5, spec)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(upper_cut=-1.0)


class TestCountProbTransform:
    def test_reference_value(self):
        value = laplace_pmf_closed(ModelParams(1.0, 1.0), 0, 1.0)
        assert value == pytest.approx(E**2 / (E**2 + 1.0), abs=1e-12)

    def test_large_argument_initial_value(self):
        # zero-count profile starts at 1, so the transform decays like 1/s
        s = 1e3
        value = laplace_pmf_closed(ModelParams(1.0, 1.0), 0, s)
        assert value == pytest.approx(1.0 / s, rel=1e-2)

    def test_total_mass_identity(self):
        # summing over all counts transforms the constant 1
        s = 1.0
        total = math.fsum(laplace_pmf_closed(ModelParams(1.0, 1.0), n, s) for n in range(41))
        assert total == pytest.approx(1.0 / s, abs=1e-9)

    @pytest.mark.parametrize("lam,eps", [(1.0, 1.0), (2.0, 0.5)])
    def test_quadrature_grid_confirms_exponent(self, lam, eps):
        params = ModelParams(lam, eps)
        rows = count_transform_residuals(params, range(4), (0.5, 1.0, 2.0))
        assert max(row["abs_err"] for row in rows) < 1e-7
        # the competing exponent (one lower) misses by orders of magnitude
        # more than the 1e-7 agreement of the right one
        for row in rows:
            n, s = row["n"], row["s"]
            w = (lam + s) * eps
            competing = lam**n * math.exp(w) / (s * math.exp(w) + lam) ** n
            assert abs(row["numeric"] - competing) > 1e-5

    def test_off_lattice_model_fails_promptly(self):
        # off the eps = 0.5 lattice the profile's cancellation noise fails
        # the panel test wherever it is bisected, until the budget runs out
        start = time.perf_counter()
        with pytest.raises(QuadratureError, match="refinement budget"):
            count_transform_residuals(ModelParams(2.0, 0.5005), range(4), (0.5, 1.0, 2.0))
        assert time.perf_counter() - start < 2.0

    def test_off_lattice_model_memory_is_bounded(self):
        # its widest level holds about 8000 panels of 45 nodes (2.9 MB of
        # abscissae); the rule evaluates them 4096 at a time
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError):
                count_transform_residuals(ModelParams(2.0, 0.5005), range(4), (0.5, 1.0, 2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MB"

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            laplace_pmf_closed(ModelParams(1.0, 1.0), -1, 1.0)
        with pytest.raises(ValueError):
            laplace_pmf_closed(ModelParams(1.0, 1.0), 0, 0.0)

    def test_scaled_pair_form(self):
        # with a = e^{lam eps}/lam, the transform also reads
        # a e^{eps s} / (a s e^{eps s} + 1)^{n+1}
        for lam, eps in ((1.0, 1.0), (2.0, 0.5), (0.7, 1.3)):
            a = math.exp(eps * lam) / lam
            for n in range(4):
                for s in (0.5, 1.0, 2.0):
                    pair = a * math.exp(eps * s) / (a * s * math.exp(eps * s) + 1.0) ** (n + 1)
                    assert laplace_pmf_closed(ModelParams(lam, eps), n, s) == pytest.approx(
                        pair, rel=1e-12
                    )


class TestTransformsInPaperVariable:
    """Every closed transform is written through c = lam e^{-(lam + s) eps},
    which underflows where e^{(lam + s) eps} would overflow."""

    @staticmethod
    def digits(lam, eps, s):
        mp = mpmath.MPContext()
        mp.dps = 50
        lam, eps, s = mp.mpf(lam), mp.mpf(eps), mp.mpf(s)
        damp = mp.exp(-(lam + s) * eps)
        c = lam * damp
        return {
            "span": (lam + s) * damp / (s + c),
            "cycle": c / (s + c),
            **{f"n{n}": c**n / (s + c) ** (n + 1) for n in range(4)},
            "moment1": mp.polylog(-1, c / (s + c)) / (s + c),
        }

    @staticmethod
    def closed(lam, eps, s):
        p = ModelParams(lam, eps)
        return {
            "span": laplace_cluster_length(p, s),
            "cycle": laplace_cycle_length(p, s),
            **{f"n{n}": laplace_pmf_closed(p, n, s) for n in range(4)},
            "moment1": laplace_moment_closed(p, 1, s),
        }

    def test_count_transform_does_not_overflow(self):
        # (s e^w + lam)^{n+1} overflowed here once (n + 1) w > 709
        value = laplace_pmf_closed(ModelParams(1.0, 1.0), 3, 200.0)
        assert value == pytest.approx(float(self.digits(1.0, 1.0, 200.0)["n3"]), rel=1e-13)

    def test_moment_transform_keeps_its_digits_at_small_argument(self):
        # c / (s + c) = 2.7e-90 here, where the finite Stirling form rounds to 0.0
        value = laplace_moment_closed(ModelParams(1.0, 1.0), 1, 200.0)
        assert value == pytest.approx(float(self.digits(1.0, 1.0, 200.0)["moment1"]), rel=1e-13)

    @pytest.mark.parametrize("lam,eps,s", [(1.0, 1.0, 700.5), (3.0, 100.0, 4.5), (1000.0, 0.7, 7.1), (0.5, 2.0, 400.0)])
    def test_match_fifty_digits_past_the_exponent_range(self, lam, eps, s):
        assert (lam + s) * eps > 700.0
        exact = self.digits(lam, eps, s)
        for name, value in self.closed(lam, eps, s).items():
            true = float(exact[name])
            assert math.isfinite(value)
            assert abs(value - true) <= 1e-13 * abs(true) + 1e-300, name


def curve_transform(params, s, curve, upper_cut):
    spec = QuadratureSpec(abs_tol=1e-10, upper_cut=upper_cut)
    eps = params.radius
    cuts = [k * eps for k in range(1, int(upper_cut / eps) + 1)]
    return numeric_laplace(curve, s, spec, breakpoints=cuts)


class TestMomentTransform:
    def test_mean_curve(self):
        params = ModelParams(1.0, 1.0)

        def mean_curve(xs):
            return np.array(
                [mean_complete(IntervalModel(params, x)) if x > 0 else 0.0 for x in np.atleast_1d(xs)]
            )

        numeric = curve_transform(params, 1.0, mean_curve, 60.0)
        assert laplace_moment_closed(params, 1, 1.0) == pytest.approx(numeric, abs=1e-7)
        # independent closed evaluation of the same transform
        assert laplace_moment_closed(params, 1, 1.0) == pytest.approx(math.exp(-2.0), abs=1e-10)

    def test_second_moment_curve(self):
        params = ModelParams(2.0, 0.5)

        def m2_curve(xs):
            return np.array(
                [moment_complete(IntervalModel(params, x), 2) if x > 0 else 0.0 for x in np.atleast_1d(xs)]
            )

        numeric = curve_transform(params, 0.7, m2_curve, 70.0)
        assert laplace_moment_closed(params, 2, 0.7) == pytest.approx(numeric, abs=1e-7)

    def test_large_argument_decays(self):
        assert abs(laplace_moment_closed(ModelParams(1.0, 1.0), 1, 1e3)) < 1e-6

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            laplace_moment_closed(ModelParams(1.0, 1.0), 0, 1.0)
        with pytest.raises(ValueError):
            laplace_moment_closed(ModelParams(1.0, 1.0), 1, -1.0)


class TestSpecForCountTransform:
    def test_cut_covers_support_and_decay(self):
        params = ModelParams(1.0, 1.0)
        spec = spec_for_count_transform(params, 3, 0.5)
        assert spec.upper_cut >= 4.0 + 40.0 / 0.5

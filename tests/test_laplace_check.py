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
from clusterline._pn import FLOOR_SLACK, count_prob_grid, floor_ratio
from oracles import p_n_by_digits

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

    @pytest.mark.parametrize("lam,eps", [(1.0, 1.0), (2.0, 0.5), (0.7, 1.0)])
    def test_rows_come_n_major_within_tolerance(self, lam, eps):
        rows = count_transform_residuals(ModelParams(lam, eps), range(4), (0.5, 1.0, 2.0))
        assert [(row["n"], row["s"]) for row in rows] == [(n, s) for n in range(4) for s in (0.5, 1.0, 2.0)]
        assert all(row["abs_err"] < row["tol"] for row in rows)

    def test_a_subset_of_counts_reads_its_own_rows(self):
        params = ModelParams(1.0, 1.0)
        full = {(row["n"], row["s"]): row for row in count_transform_residuals(params, range(4), (0.5, 2.0))}
        rows = count_transform_residuals(params, [3, 1], [2.0, 0.5])
        assert [(row["n"], row["s"]) for row in rows] == [(3, 2.0), (3, 0.5), (1, 2.0), (1, 0.5)]
        for row in rows:
            assert row["numeric"] == pytest.approx(full[row["n"], row["s"]]["numeric"], abs=2e-10)
        # the benchmark's warm-up call
        (row,) = count_transform_residuals(ModelParams(1.3, 0.7 / 1.3), [0], [1.0])
        assert (row["n"], row["s"]) == (0, 1.0) and row["abs_err"] < row["tol"]

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


def single_count_sum(lam, eps, xs, n):
    """p_n alone, summed term by term over a mask of the points each term
    reaches: the grid kernel's single-count form, which its rows reproduce
    bit for bit. 1/i! is formed as the kernel forms it, for i <= 170."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.zeros_like(xs)
        positive = xs > 0.0
        if n == 0:
            out[~positive] = 1.0
        if not positive.any():
            return out
        a = lam * math.exp(-lam * eps)
        x_hi = float(xs[positive].max())
        c = x_hi * a
        for i in range(max(floor_ratio(x_hi, eps) - n, 0) + 1):
            k = n + i
            active = positive & (xs >= ((k * eps) * (1.0 - FLOOR_SLACK) if k > 0 else 0.0))
            if not active.any():
                break
            b = (xs[active] - k * eps) * a
            term = (np.maximum(b, 0.0) ** k if k > 0 else np.ones_like(b)) * (1.0 / math.factorial(n) * (1.0 / math.factorial(i)))
            out[active] += -term if i % 2 else term
            if c < 0.5 * (i + 1) and term.max() < 1e-18:
                break
        return out


class TestGridKernel:
    """count_prob_grid's rows p_0..p_{n_max} on the check's Gauss-Legendre
    nodes."""

    @staticmethod
    def nodes(eps, top):
        """15 Gauss-Legendre nodes on every radius panel of [0, top], shuffled,
        with the lattice points and x <= 0."""
        gl, _ = np.polynomial.legendre.leggauss(15)
        knots = np.arange(0.0, top + 0.5 * eps, eps)
        xs = (0.5 * (knots[:-1] + knots[1:])[:, None] + 0.5 * np.diff(knots)[:, None] * gl).ravel()
        return np.random.default_rng(7).permutation(np.concatenate([xs, knots, [-1.0, -0.0]]))

    @pytest.mark.parametrize("lam,eps", [(2.0, 0.5), (1.0, 1.0), (0.7, 1.3)])
    def test_each_row_is_the_single_count_sum_bit_for_bit(self, lam, eps):
        xs = self.nodes(eps, 4 * eps + 40.0 / min(0.5, lam))  # the check's widest cut
        grid = count_prob_grid(lam, eps, xs, 3)
        for n in range(4):
            assert grid[n].tobytes() == count_prob_grid(lam, eps, xs, n)[n].tobytes(), n
            assert grid[n].tobytes() == single_count_sum(lam, eps, xs, n).tobytes(), n

    @pytest.mark.parametrize("lam,eps,clean", [(2.0, 0.5, 10.0), (1.0, 1.0, 20.0), (0.7, 1.3, 26.0)])
    def test_rows_match_eighty_digits_where_the_sum_is_clean(self, lam, eps, clean):
        # past `clean` the alternating sum cancels beyond 1e-12 absolute
        # (at (2, 0.5) it is 1e-9 off by x = 20 and 4.6e-4 by x = 40)
        xs = self.nodes(eps, clean)[::4]
        xs = xs[xs <= clean]
        grid = count_prob_grid(lam, eps, xs, 3)
        for j, x in enumerate(xs):
            for n in range(4):
                assert abs(grid[n, j] - float(p_n_by_digits(ModelParams(lam, eps), float(x), n))) <= 1e-12, (x, n)

    def test_points_at_or_below_zero_hold_no_cluster(self):
        grid = count_prob_grid(1.0, 1.0, np.array([-np.inf, -1.0, -0.0, 0.0, 2.5]), 2)
        assert grid[:, :4].tolist() == [[1.0] * 4, [0.0] * 4, [0.0] * 4]
        assert 0.0 < grid[0, 4] < 1.0

    def test_shapes(self):
        assert count_prob_grid(1.0, 1.0, 2.5, 3).shape == (4,)
        assert count_prob_grid(1.0, 1.0, np.array([]), 3).shape == (4, 0)
        assert count_prob_grid(1.0, 1.0, np.ones((2, 5)), 1).shape == (2, 2, 5)


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
    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan])
    def test_refuses_a_transform_argument_that_is_not_positive(self, s):
        with pytest.raises(ValueError, match="transform argument"):
            spec_for_count_transform(ModelParams(1.0, 1.0), 3, s)

    def test_cut_covers_support_and_decay(self):
        params = ModelParams(1.0, 1.0)
        spec = spec_for_count_transform(params, 3, 0.5)
        assert spec.upper_cut >= 4.0 + 40.0 / 0.5

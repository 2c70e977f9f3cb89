"""Count distributions on the interval and circle.

Oracles used here are independent of the implementation path: hand-derived
polynomial forms for the unit-radius length-4 model, the Poisson law for
the vanishing-radius limit, a conditional-Poisson circular-spacings formula
for the circle counts, a first-moment identity for incomplete counts, and
for the coverage probability both a renewal identity and a quadrature of
the span survival.
"""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from scipy import optimize

import clusterline as cl
from clusterline import (
    CapacityError,
    IntervalModel,
    ModelParams,
    NormalizationError,
    coverage_prob,
    coverage_prob_closed,
    coverage_report,
    mean_complete,
    mean_peak,
    moment_complete,
    pmf_circle,
    pmf_circle_table,
    pmf_complete,
    pmf_complete_table,
    pmf_incomplete,
    pmf_incomplete_table,
    var_complete,
    var_critical_points,
)
from clusterline import _pn
from clusterline._pn import count_prob, floor_ratio
from clusterline.component_counts import _finish_pmf
from oracles import (
    circle_by_digits,
    coverage_by_quadrature,
    incomplete_by_convolution,
    incomplete_by_digits,
    p_n_by_digits,
)

E = math.e


def unit_model(length=4.0, lam=1.0):
    return IntervalModel(ModelParams(lam, 1.0), length)


def random_models(count, seed=42):
    """Random models with lam (L + eps) <= 30 and floor(L/eps) <= 40."""
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(count):
        ratio = rng.uniform(1.0, 40.0)
        eps = rng.uniform(0.05, 3.0)
        length = ratio * eps
        lam = rng.uniform(0.3, 30.0) / (length + eps)
        models.append(IntervalModel(ModelParams(lam, eps), length))
    return models


class TestPmfComplete:
    def test_three_clusters_unit_model(self):
        assert pmf_complete(unit_model(), 3) == pytest.approx(E**-3 / 6.0, abs=1e-12)

    def test_short_domain_forces_zero_count(self):
        assert pmf_complete(IntervalModel(ModelParams(2.0, 1.0), 0.5), 0) == 1.0
        assert pmf_complete(IntervalModel(ModelParams(2.0, 1.0), 0.5), 1) == 0.0

    def test_one_cluster_unit_model(self):
        expected = 3.0 / E - 4.0 / E**2 + 0.5 / E**3
        assert pmf_complete(unit_model(), 1) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_unit_radius_length_four_polynomials(self, lam):
        # four-term closed polynomials in q = lam e^{-lam}
        q = lam * math.exp(-lam)
        model = IntervalModel(ModelParams(lam, 1.0), 4.0)
        expected = {
            0: 1.0 - 3.0 * q + 2.0 * q**2 - q**3 / 6.0,
            1: 3.0 * q - 4.0 * q**2 + 0.5 * q**3,
            2: 2.0 * q**2 - 0.5 * q**3,
            3: q**3 / 6.0,
        }
        for n, value in expected.items():
            assert pmf_complete(model, n) == pytest.approx(value, abs=1e-12)
        for n in range(4, 10):
            assert pmf_complete(model, n) == 0.0

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            pmf_complete(unit_model(), -1)

    def test_lattice_point_continuity(self):
        for k in (1, 2, 3):
            for n in (0, 1, 2):
                lo = pmf_complete(unit_model(length=k - 1e-9), n)
                hi = pmf_complete(unit_model(length=k + 1e-9), n)
                assert abs(hi - lo) < 1e-7


class TestPmfCompleteTable:
    def test_unit_model_table(self):
        table = pmf_complete_table(unit_model())
        assert table.support_max == 4
        assert table.probs[4] == 0.0
        assert abs(table.tail_mass) < 1e-12

    def test_short_domain_table(self):
        table = pmf_complete_table(IntervalModel(ModelParams(0.5, 1.0), 0.5))
        assert table.probs == (1.0,)

    def test_poisson_limit_table(self):
        table = pmf_complete_table(IntervalModel(ModelParams(2.0, 1e-6), 1.0))
        for n in range(9):
            poisson = math.exp(-2.0) * 2.0**n / math.factorial(n)
            assert table.probs[n] == pytest.approx(poisson, abs=1e-4)

    @pytest.mark.parametrize("lam", [0.02, 0.03, 0.05, 0.1])
    def test_printed_tail_rows_match_120_digits(self, lam):
        # the tail cut is relative to the leading term; an absolute 1e-18
        # cut printed wrong tail rows here, e.g. 4.11428991e-26 for the
        # 120-digit 4.11499989e-26 at n = 16, lam = 0.02, L = 25
        for length in (20.0, 25.0, 30.0, 35.0, 40.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error", cl.PrecisionWarning)
                probs = pmf_complete_table(IntervalModel(ModelParams(lam, 1.0), length)).probs
            for n, p in enumerate(probs):
                exact = min(1.0, max(0.0, float(p_n_by_digits(ModelParams(lam, 1.0), length, n, dps=120))))
                assert format(p, ".9g") == format(exact, ".9g"), (length, n)

    def test_unstable_regime_raises(self):
        bad = IntervalModel(ModelParams(30.0, 0.01), 50.0)
        with pytest.raises((NormalizationError, ValueError)), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pmf_complete_table(bad)

    def test_non_finite_double_pass_escalates(self):
        # a term of the double pass overflows at L = 500, so it returns nan;
        # the digit passes decide the value instead
        p = ModelParams(1.0, 1.0)
        assert not math.isfinite(count_prob(1.0, 1.0, 500.0, 183)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", cl.PrecisionWarning)
            value = pmf_complete(IntervalModel(p, 500.0), 183)
        assert value == pytest.approx(float(p_n_by_digits(p, 500.0, 183, dps=150)), rel=1e-12)

    def test_hopeless_model_stops_after_one_digit_pass(self, monkeypatch):
        # sum|term| is about e^{1111} here: no pass up to 120 digits can meet
        # the 1e-13 absolute bound, so the ladder stops after 30 digits, the
        # entry is nan and the table says so at its first entry
        passes = []
        digit_pass = cl.component_counts.count_prob_mp
        monkeypatch.setattr(
            cl.component_counts, "count_prob_mp", lambda *a, **k: passes.append(a[-1]) or digit_pass(*a, **k)
        )
        bad = IntervalModel(ModelParams(30.0, 0.01), 50.0)
        with pytest.warns(cl.PrecisionWarning):
            assert math.isnan(pmf_complete(bad, 0))
        assert passes == [30]
        with pytest.raises(NormalizationError, match="entry 0 is not finite"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pmf_complete_table(bad)

    def test_digit_pass_past_the_doubles_reports_infinite_estimate(self):
        # the 30-digit value converts to inf here and its mass is capped at
        # 1e300, so ulp * mass / |value| would read 0
        bad = IntervalModel(ModelParams(30.0, 0.01), 50.0)
        for pmf in (pmf_complete, pmf_circle):
            with pytest.warns(cl.PrecisionWarning) as caught:
                assert math.isnan(pmf(bad, 0))
            assert [w.message.estimate for w in caught] == [math.inf], pmf.__name__

    def test_precision_warning_carries_estimate(self):
        # far outside every documented regime; even the deepest fallback
        # cannot rescue the cancellation, so the warning must fire
        bad = IntervalModel(ModelParams(300.0, 1e-4), 1.0)
        with pytest.warns(cl.PrecisionWarning) as caught:
            pmf_complete(bad, 0)
        assert caught[0].message.estimate > 1e-9


def summed_terms(lam, eps, x, n, lag=0):
    """How many terms the double pass of the p_n series sums before its tail cut."""
    lengths = []

    def total(terms):
        terms = list(terms)
        lengths.append(len(terms))
        return math.fsum(terms)

    _pn._pn_sum(dataclasses.replace(_pn.DOUBLES, total=total), lam, eps, x, n, lag)
    return lengths[0]


class TestTailCut:
    """The p_n series stops at a term below its cut once c = x a < (i + 1) / 2,
    as the rest of its tail is then below that term. Here the cut drops
    almost every term, and each double pass _finish_pmf accepts matches the
    sum of every term."""

    CASES = [(1.0, 1e-4, n, 0) for n in range(6)] + [(3.0, 1e-3, n, 0) for n in range(6)] + [(3.0, 1e-3, 2, 1)]

    @pytest.mark.parametrize("lam,eps,n,lag", CASES)
    def test_accepted_double_pass_matches_every_term(self, lam, eps, n, lag):
        p, x = ModelParams(lam, eps), 1.0
        assert summed_terms(lam, eps, x, n, lag) < (floor_ratio(x, eps) - n + 1) / 10
        value, mass = count_prob(lam, eps, x, n, lag=lag)
        escalated = []
        _finish_pmf(value, mass, "cut", mp_eval=lambda dps: escalated.append(dps) or (value, 0.0))
        assert escalated == []
        exact = circle_by_digits(p, x, n, dps=40) if lag else p_n_by_digits(p, x, n, dps=40)
        assert value == pytest.approx(float(exact), rel=1e-12, abs=0.0)


class TestMoments:
    def test_first_moment_unit_model(self):
        assert moment_complete(unit_model(), 1) == pytest.approx(3.0 / E, abs=1e-12)

    def test_short_domain_moments_vanish(self):
        model = IntervalModel(ModelParams(3.0, 2.0), 1.5)
        for m in (1, 2, 5):
            assert moment_complete(model, m) == 0.0

    def test_second_moment_vs_pmf_sum(self):
        table = pmf_complete_table(unit_model())
        reference = math.fsum(n**2 * p for n, p in enumerate(table.probs))
        assert moment_complete(unit_model(), 2) == pytest.approx(reference, abs=1e-12)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            moment_complete(unit_model(), 0)

    def test_mean_and_variance_closed_forms(self):
        model = unit_model()
        assert mean_complete(model) == pytest.approx(3.0 / E, abs=1e-12)
        assert var_complete(model) == pytest.approx(3.0 / E - 5.0 / E**2, abs=1e-12)
        assert mean_complete(IntervalModel(ModelParams(1.0, 2.0), 1.5)) == 0.0

    def test_closed_forms_match_moment_route(self):
        for model in random_models(60, seed=3):
            mean = moment_complete(model, 1)
            var = moment_complete(model, 2) - mean**2
            assert mean_complete(model) == pytest.approx(mean, abs=1e-12)
            assert var_complete(model) == pytest.approx(var, abs=max(1e-12, 1e-12 * abs(var)))


class TestMeanPeak:
    def test_unit_model_peak(self):
        lam_star, value = mean_peak(unit_model())
        assert lam_star == 1.0
        assert value == pytest.approx(3.0 / E, abs=1e-12)

    def test_is_strict_local_maximum(self):
        lam_star, value = mean_peak(unit_model())
        for shift in (-0.01, 0.01):
            shifted = mean_complete(IntervalModel(ModelParams(lam_star + shift, 1.0), 4.0))
            assert shifted < value

    def test_scaled_model(self):
        lam_star, value = mean_peak(IntervalModel(ModelParams(1.0, 2.0), 10.0))
        assert lam_star == pytest.approx(0.5, abs=1e-15)
        assert value == pytest.approx(4.0 / E, abs=1e-12)

    def test_no_maximum_for_short_domain(self):
        with pytest.raises(ValueError):
            mean_peak(IntervalModel(ModelParams(1.0, 2.0), 1.5))


class TestVarCriticalPoints:
    def test_unit_model_three_points(self):
        points = var_critical_points(unit_model())
        assert len(points) == 3
        # independent root-finder oracle for q e^{-q} = 0.3
        low = optimize.brentq(lambda t: t * math.exp(-t) - 0.3, 1e-9, 1.0, xtol=1e-12)
        high = optimize.brentq(lambda t: t * math.exp(-t) - 0.3, 1.0, 10.0, xtol=1e-12)
        assert points[0] == pytest.approx(low, abs=1e-9)
        assert points[1] == 1.0
        assert points[2] == pytest.approx(high, abs=1e-9)

    def test_short_domain_single_point(self):
        assert var_critical_points(IntervalModel(ModelParams(1.0, 1.0), 1.5)) == (1.0,)

    def test_derivative_vanishes_at_each_point(self):
        h = 1e-7
        for lam in var_critical_points(unit_model()):
            up = var_complete(IntervalModel(ModelParams(lam + h, 1.0), 4.0))
            down = var_complete(IntervalModel(ModelParams(lam - h, 1.0), 4.0))
            assert abs(up - down) / (2.0 * h) < 1e-5


def coverage_renewal_identity(lam, eps, length):
    """Restart-at-the-radius identity: coverage equals
    p0(L) - e^{-lam eps} p0(L - eps), with p0 the zero-cluster profile."""

    def p0(x):
        return 1.0 if x <= 0 else count_prob(lam, eps, x, 0)[0]

    return p0(length) - math.exp(-lam * eps) * p0(length - eps)


COVERAGE_MODELS = [(1.0, 1.0, 2.0), (2.0, 1.0, 2.5), (0.5, 2.0, 5.0), (4.0, 1.0, 3.5), (1.3, 0.7, 3.1)]


class TestCoverage:
    def test_short_domain_reduces_to_first_arrival(self):
        model = IntervalModel(ModelParams(2.0, 1.0), 0.8)
        assert coverage_prob(model) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-9)

    @pytest.mark.parametrize("lam,eps,length", COVERAGE_MODELS)
    def test_matches_renewal_identity(self, lam, eps, length):
        model = IntervalModel(ModelParams(lam, eps), length)
        assert coverage_prob(model) == pytest.approx(
            coverage_renewal_identity(lam, eps, length), abs=1e-8
        )

    @pytest.mark.parametrize("lam,eps,length", COVERAGE_MODELS + [(2.0, 1.0, 0.8), (1.0, 1.0, 1.0)])
    def test_matches_quadrature(self, lam, eps, length):
        model = IntervalModel(ModelParams(lam, eps), length)
        assert coverage_prob(model) == pytest.approx(coverage_by_quadrature(lam, eps, length), abs=1e-9)

    def test_matches_quadrature_on_random_models(self):
        for model in random_models(40):
            lam, eps = model.params.intensity, model.params.radius
            assert coverage_prob(model) == pytest.approx(
                coverage_by_quadrature(lam, eps, model.length), abs=1e-9
            )

    def test_monotone_in_intensity(self):
        values = [
            coverage_prob(IntervalModel(ModelParams(lam, 1.0), 2.0))
            for lam in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_dense_regime_close_to_one(self):
        assert coverage_prob(IntervalModel(ModelParams(20.0, 1.0), 2.0)) >= 0.999

    def test_closed_form_is_flagged_when_off(self):
        report = coverage_report(IntervalModel(ModelParams(1.0, 1.0), 2.0))
        assert report.quadrature == pytest.approx(
            coverage_renewal_identity(1.0, 1.0, 2.0), abs=1e-8
        )
        assert report.mismatch == (abs(report.quadrature - report.closed_form) > 1e-6)

    def test_closed_form_short_domain_comparison(self):
        model = IntervalModel(ModelParams(1.5, 1.0), 0.9)
        closed = coverage_prob_closed(model)
        direct = 1.0 - math.exp(-1.5)
        report = coverage_report(model)
        assert report.mismatch == (abs(direct - closed) > 1e-6)

    def test_grid_report(self):
        for lam in (0.5, 1.0, 2.0, 4.0):
            for ratio in (1.5, 2.5, 3.5):
                report = coverage_report(IntervalModel(ModelParams(lam, 1.0), ratio))
                assert 0.0 <= report.quadrature <= 1.0
                assert isinstance(report.mismatch, bool)


def incomplete_mean_identity(lam, eps, length):
    """Mean number of clusters touching [0, L], by averaging run starts
    over the point process (independent first-moment computation)."""
    capped = min(length, eps)
    return (1.0 - math.exp(-lam * capped)) + lam * max(length - eps, 0.0) * math.exp(-lam * eps)


def two_chain_incomplete_counts(lam, eps, length):
    """_pn.incomplete_counts as it was before the running sums: every step
    runs one Horner chain in D for its own integral and one for the lattice
    advance, and adds its integral scaled to the interval's end. Kept as
    the reference of the one-chain walk."""
    steps = floor_ratio(length, eps)
    h = lam * math.exp(-lam * eps) * eps
    degree = min(_pn._step_degree(h, _pn._INCOMPLETE_DROP), steps)
    coefs = [h**m / math.factorial(m) for m in range(degree + 1)]
    full, last = (
        [c * tau ** (m + 1) * w for m, (c, w) in enumerate(zip(coefs, _pn._damped_moments(lam * eps * tau, degree)))]
        for tau in (1.0, max(length / eps - steps, 0.0))
    )
    counts = [math.exp(-lam * length)] + [0.0] * (steps + 1)
    history = [[1.0]]
    for j in range(steps):
        scale = lam * eps * math.exp(-lam * (length - eps * (j + 1)))
        integral = _pn._horner_in_d(full, history)
        counts[1 : j + 2] = [c + scale * x for c, x in zip(counts[1 : j + 2], integral)]
        history.insert(0, _pn._horner_in_d(coefs, history) + [0.0])
        del history[degree + 1 :]
    counts[1:] = [c + lam * eps * x for c, x in zip(counts[1:], _pn._horner_in_d(last, history))]
    return counts


class TestPmfIncomplete:
    def test_zero_count_is_empty_interval(self):
        assert pmf_incomplete(unit_model(), 0) == pytest.approx(math.exp(-4.0), abs=1e-12)

    def test_normalization_unit_model(self):
        table = pmf_incomplete_table(unit_model())
        assert abs(table.tail_mass) < 1e-9
        assert table.support_max == 5

    def test_mean_identity(self):
        table = pmf_incomplete_table(unit_model())
        mean = math.fsum(n * p for n, p in enumerate(table.probs))
        assert mean == pytest.approx(1.0 + 2.0 / E, abs=1e-10)
        for model in random_models(40, seed=9):
            t = pmf_incomplete_table(model)
            mean = math.fsum(n * p for n, p in enumerate(t.probs))
            lam, eps = model.params.intensity, model.params.radius
            assert mean == pytest.approx(
                incomplete_mean_identity(lam, eps, model.length), abs=1e-9
            )

    @pytest.mark.parametrize(
        "lam,eps,length",
        [(1.0, 1.0, 4.0), (0.7, 0.5, 3.3), (2.0, 1.0, 6.5), (1.5, 0.3, 2.9), (3.0, 0.5, 7.25)],
    )
    def test_matches_convolution_oracle(self, lam, eps, length):
        # the oracle integrates the same step profile by quadrature, so this
        # checks the conditioning on the last point, not the profile
        table = pmf_incomplete_table(IntervalModel(ModelParams(lam, eps), length))
        for n, p in enumerate(table.probs):
            assert p == pytest.approx(incomplete_by_convolution(lam, eps, length, n), abs=1e-12)

    def test_matches_digit_series_on_fixed_models(self):
        # every twelfth of criterion 2's 500 models, then criterion 2's first
        # model, whose n = 28 entry the partial-exponential series' digit pass
        # accepted 2.1e-5 relative off, and (0.05, 1, 40), where that series
        # printed 0 at n = 25 and 7.0e-27 at n = 30
        models = random_models(500, seed=20240601)[6::12] + [
            IntervalModel(ModelParams(0.21765631981973046, 1.7635594645394945), 56.22409391684596),
            IntervalModel(ModelParams(0.05, 1.0), 40.0),
        ]
        for model in models:
            params, length = model.params, model.length
            for n, p in enumerate(pmf_incomplete_table(model).probs):
                exact = float(incomplete_by_digits(params, length, n))
                assert abs(p - exact) <= 1e-12 * exact + 1e-43, (params, length, n)

    def test_one_chain_walk_matches_the_two_chain_walk(self):
        # criterion 2's 500 models, then a lam eps past the exponent range
        # (every weight damped), the model whose tail the old series lost
        # and a fine radius (250 steps); the walks differ only in rounding
        models = [(m.params.intensity, m.params.radius, m.length) for m in random_models(500, seed=20240601)]
        for lam, eps, length in models + [(800.0, 1.0, 3.5), (0.05, 1.0, 40.0), (1.0, 0.004, 1.0)]:
            walk = _pn.incomplete_counts(lam, eps, length)
            reference = two_chain_incomplete_counts(lam, eps, length)
            assert len(walk) == len(reference)
            for n, (q, ref) in enumerate(zip(walk, reference)):
                assert abs(q - ref) <= 1e-13 * abs(ref) + 1e-45, (lam, eps, length, n)

    @pytest.mark.parametrize("eps", [0.004, 0.002])
    def test_fine_radius_table_is_normalised(self, eps):
        # supports 251 and 501, where the partial-exponential series missed
        # normalisation by -77 and -192 and raised NormalizationError
        assert abs(pmf_incomplete_table(IntervalModel(ModelParams(1.0, eps), 1.0)).tail_mass) <= 1e-9

    def test_support_past_the_budget_raises_before_any_work(self):
        # support 10001: the G table alone is quadratic in it (over 10 minutes)
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="INCOMPLETE_SUPPORT_BUDGET"):
            pmf_incomplete_table(IntervalModel(ModelParams(1.0, 1e-4), 1.0))
        assert time.perf_counter() - start < 1.0
        with pytest.raises(CapacityError):
            pmf_incomplete_table(IntervalModel(ModelParams(1.0, 1.0), 512.0))

    def test_one_count_past_the_budget_raises_before_any_work(self):
        # support 5001: the double and 30-digit G tables took 86 s to return nan
        model = IntervalModel(ModelParams(30.0, 0.01), 50.0)
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="INCOMPLETE_SUPPORT_BUDGET"):
            pmf_incomplete(model, 0)
        assert time.perf_counter() - start < 1.0
        assert pmf_incomplete(model, 5002) == 0.0  # above the support

    def test_dominates_complete_count(self):
        # every complete cluster is an incomplete cluster
        for model in random_models(60, seed=17):
            comp = pmf_complete_table(model)
            inc = pmf_incomplete_table(model)
            for n in range(comp.support_max + 1):
                comp_tail = math.fsum(comp.probs[n:])
                inc_tail = math.fsum(inc.probs[n:])
                assert inc_tail >= comp_tail - 1e-9


def circle_count_oracle(lam, eps, length, n, n_cutoff=None):
    """Conditional-Poisson oracle for the circle cluster count.

    Given N uniform points on a circle, the chance that exactly k of the
    N spacings exceed eps has the classical closed form
    C(N,k) sum_j (-1)^j C(N-k, j) (1-(k+j) eps/L)_+^{N-1}; mixing over the
    Poisson point count (truncated far into its tail) gives the count law.
    Entirely independent of the series under test.
    """

    def positive_power(base, power):
        if base <= 0.0:
            return 0.0
        return base**power

    mu = lam * length
    if n_cutoff is None:
        n_cutoff = int(mu + 12.0 * math.sqrt(mu) + 40.0)
    total = math.exp(-mu) if n == 0 else 0.0
    log_pois = -mu
    for npts in range(1, n_cutoff + 1):
        log_pois += math.log(mu / npts)
        if n > npts:
            continue
        prob_k = math.fsum(
            (-1) ** j
            * math.comb(npts - n, j)
            * positive_power(1.0 - (n + j) * eps / length, npts - 1)
            for j in range(npts - n + 1)
        ) * math.comb(npts, n)
        total += math.exp(log_pois) * prob_k
    return total


class TestPmfCircle:
    def test_zero_count_covers_empty_circle(self):
        for model in random_models(25, seed=21):
            lam = model.params.intensity
            assert pmf_circle(model, 0) >= math.exp(-lam * model.length) - 1e-12

    def test_normalization_unit_model(self):
        table = pmf_circle_table(unit_model())
        assert abs(table.tail_mass) < 1e-9

    @pytest.mark.parametrize(
        "lam,eps,length",
        [(1.0, 1.0, 4.0), (1.0, 1.0, 1.5), (2.0, 1.0, 2.5), (0.8, 0.5, 2.3), (1.0, 1.0, 0.5)],
    )
    def test_matches_conditional_poisson_oracle(self, lam, eps, length):
        model = IntervalModel(ModelParams(lam, eps), length)
        for n in range(0, int(length / eps) + 2):
            assert pmf_circle(model, n) == pytest.approx(
                circle_count_oracle(lam, eps, length, n), abs=1e-9
            )

    def test_support_bound(self):
        model = unit_model()
        for n in range(5, 12):
            assert pmf_circle(model, n) == 0.0

    def test_underflowed_rate_is_one_wrapping_cluster(self):
        # lam e^{-lam eps} underflows to 0 in doubles at lam eps = 1000, so
        # the double pass cannot form its lowered n = 0 term; a digit pass does
        model = IntervalModel(ModelParams(1000.0, 1.0), 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", cl.PrecisionWarning)
            assert pmf_circle_table(model).probs == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_matches_digit_oracle_in_relative_terms(self):
        # the conditional-Poisson check above is absolute, so it cannot see
        # tail entries; here every entry above 1e-300 is held to 1e-9
        # relative, including P(C = 0) where it is small and cancels most
        small_zero = 0
        for model in random_models(40, seed=23):
            params, length = model.params, model.length
            for n, p in enumerate(pmf_circle_table(model).probs):
                exact = float(circle_by_digits(params, length, n))
                if n == 0 and exact < 1e-6:
                    small_zero += 1
                if p > 1e-300 or exact > 1e-300:
                    assert p == pytest.approx(exact, rel=1e-9, abs=0.0), (params, length, n)
        assert small_zero > 0


class TestRandomModelInvariants:
    def test_normalization_and_support(self):
        for model in random_models(120, seed=5):
            ratio = int(model.length / model.params.radius + 1e-12)
            comp = pmf_complete_table(model)
            assert abs(comp.tail_mass) < 1e-9
            assert pmf_complete(model, ratio + 1) == 0.0
            assert abs(pmf_incomplete_table(model).tail_mass) < 1e-9
            assert pmf_incomplete(model, ratio + 2) == 0.0
            assert abs(pmf_circle_table(model).tail_mass) < 1e-9

    def test_moment_consistency(self):
        for model in random_models(60, seed=31):
            table = pmf_complete_table(model)
            for m in range(1, 5):
                reference = math.fsum(n**m * p for n, p in enumerate(table.probs))
                value = moment_complete(model, m)
                if reference > 1e-300:
                    assert value == pytest.approx(reference, rel=1e-9, abs=0.0)
                else:
                    assert value == pytest.approx(reference, abs=1e-12)

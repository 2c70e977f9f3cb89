"""Distributions of cluster counts on an interval and on a circle.

Covers the probability mass function and moments of the number of complete
clusters on [0, L], the full-coverage probability, the incomplete-cluster
count (clusters touching the interval at all), and the cluster count on a
circle of circumference L.

The complete and circle pmfs are one alternating series, written once over
a NumberSystem (see _pn): the double pass sums it exactly with math.fsum,
and the 30/60/120-digit passes re-run it in mpmath while its cancellation
estimate, working epsilon * sum|term| / |value|, is too large. When the
deepest pass still exceeds 1e-9 a PrecisionWarning fires with the estimate
attached; the value is clamped to [0, 1] either way. The incomplete count
sums no alternating series: it is the complete-count profile integrated
against the last point (_pn.incomplete_counts), in doubles, with no digit
pass. The documented double-precision validity regime is
lam * L * e^{-lam*eps} <= 30 with floor(L/eps) <= 60.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from ._pn import count_prob, count_prob_mp, floor_ratio, incomplete_counts
from .cluster_laws import ModelParams
from .errors import CapacityError, NormalizationError, PrecisionWarning
from .special_fn import partial_exp_sum, stirling_row

_CANCEL_TOL = 1e-9
_TABLE_TOL = 1e-9
# above this sum of |term| even the 120-digit pass misses the 1e-13 absolute bound
_HOPELESS_MASS = 1e-13 / 10.0 ** (1 - 120)
COVERAGE_MISMATCH_TOL = 1e-6
# the incomplete count's pass is quadratic in its support (steps times width)
INCOMPLETE_SUPPORT_BUDGET = 512


@dataclass(frozen=True)
class IntervalModel:
    """A deployment model together with the observed domain length."""

    params: ModelParams
    length: float

    def __post_init__(self):
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise ValueError(f"length must be positive and finite, got {self.length}")


@dataclass(frozen=True)
class DistributionTable:
    """Finite pmf over counts 0..support_max.

    tail_mass is 1 minus the summed probabilities and must be ~0; table
    builders raise NormalizationError when it is not.
    """

    support_max: int
    probs: tuple[float, ...]
    tail_mass: float


def _cancellation(eps_work: float, value: float, abs_sum: float) -> float:
    if math.isfinite(value) and math.isfinite(abs_sum):
        return eps_work * abs_sum / max(abs(value), 1e-300)
    return math.inf


def _finish_pmf(value: float, abs_sum: float, what: str, mp_eval, stacklevel: int = 3) -> float:
    """Stabilize an alternating pmf sum, then clamp to [0, 1].

    The cancellation estimate is working-epsilon * sum|term| / |value|,
    where sum|term| counts every intermediate magnitude the evaluation
    pushed through the significand. When the double-precision pass cannot
    guarantee ~1e-13 absolute and ~1e-10 relative accuracy, the sum is
    re-evaluated at escalating precision (30, 60, 120 digits), also when
    the double pass is not finite; the ladder stops early once a pass's
    sum|term| shows that no pass up to 120 digits can meet the absolute
    bound. A pass whose value or sum|term| is not finite has estimate inf.
    A PrecisionWarning carrying the final estimate fires only if the last
    pass still sits above the 1e-9 reliability threshold; the value is
    clamped either way.
    """
    eps_work = math.ulp(1.0)
    estimate = _cancellation(eps_work, value, abs_sum)
    if estimate > 1e-10 or eps_work * abs_sum > 1e-13:
        for dps in (30, 60, 120):
            value, abs_sum = mp_eval(dps)
            eps_work = 10.0 ** (1 - dps)
            estimate = _cancellation(eps_work, value, abs_sum)
            if (estimate <= 1e-10 and eps_work * abs_sum <= 1e-13) or abs_sum > _HOPELESS_MASS:
                break
    if not math.isfinite(value) or estimate > _CANCEL_TOL:
        warnings.warn(
            PrecisionWarning(
                f"{what}: cancellation estimate {estimate:.3e} exceeds {_CANCEL_TOL:.0e}; "
                "value clamped but unreliable",
                estimate=estimate,
            ),
            stacklevel=stacklevel,
        )
    if not math.isfinite(value):
        return math.nan
    return min(1.0, max(0.0, value))


def pmf_complete(model: IntervalModel, n: int) -> float:
    """Probability of exactly n complete clusters on [0, length].

    A cluster is complete when its span (last point plus one radius) ends
    inside the interval. Zero for n above floor(length / radius).
    """
    if n < 0:
        raise ValueError(f"count must be non-negative, got {n}")
    lam, eps = model.params.intensity, model.params.radius
    return _profile(lam, eps, model.length, n, f"pmf_complete(n={n})")


def _profile(lam: float, eps: float, x: float, n: int, what: str, lag: int = 0) -> float:
    """The complete-count profile p_n(x) (the circle count with ``lag=1``),
    stabilized and clamped to [0, 1]; warnings name the caller's caller."""
    value, abs_sum = count_prob(lam, eps, x, n, lag=lag)
    return _finish_pmf(
        value,
        abs_sum,
        what,
        mp_eval=lambda dps: count_prob_mp(lam, eps, x, n, dps, lag=lag),
        stacklevel=4,
    )


def pmf_incomplete(model: IntervalModel, n: int) -> float:
    """Probability of exactly n incomplete clusters on [0, length].

    A cluster counts as soon as any of its points lies in the interval,
    so the support extends one step past the complete-count bound. Read
    off the model's cached incomplete_counts, clamped to [0, 1].

    Raises:
        CapacityError: Before any work, for an n inside a support
            floor(length / radius) + 1 above INCOMPLETE_SUPPORT_BUDGET.
    """
    if n < 0:
        raise ValueError(f"count must be non-negative, got {n}")
    lam, eps = model.params.intensity, model.params.radius
    L = model.length
    upper = floor_ratio(L, eps) + 1
    if n > upper:
        return 0.0
    if upper > INCOMPLETE_SUPPORT_BUDGET:
        raise CapacityError(
            f"incomplete-count support {upper} exceeds INCOMPLETE_SUPPORT_BUDGET = {INCOMPLETE_SUPPORT_BUDGET}; "
            "its cost is quadratic in the support"
        )
    return min(1.0, max(0.0, incomplete_counts(lam, eps, L)[n]))


def pmf_circle(model: IntervalModel, n: int) -> float:
    """Probability of exactly n disjoint covered arcs on a circle.

    length is read as the circumference. The count is zero both for an
    empty circle and when a single cluster wraps the whole circle. For
    n >= 1

        P(C = n) = (L / n) f_{U_n}(L) = L a p_{n-1}(L - eps) / n,

    a = lam e^{-lam eps}, f_{U_n} the n-cycle-sum density, and
    P(C = 0) = p_0(L) - a eps p_0(L - eps). Both are the complete-count
    series with every exponent lowered by one and the sum scaled by L a
    (the profile with lag=1), on the same precision ladder as pmf_complete.
    """
    if n < 0:
        raise ValueError(f"count must be non-negative, got {n}")
    lam, eps = model.params.intensity, model.params.radius
    return _profile(lam, eps, model.length, n, f"pmf_circle(n={n})", lag=1)


def _build_table(pmf, support_max: int, what: str) -> DistributionTable:
    probs = []
    cum = 0.0
    zero_run = 0
    for n in range(support_max + 1):
        p = pmf(n)
        probs.append(p)
        if not math.isfinite(p):  # the tail would be nan: say so now, not after the rest
            raise NormalizationError(
                f"{what} table entry {n} is not finite; model is outside the stable evaluation regime"
            )
        cum += p
        # once the mass is exhausted the remaining entries are all zero
        zero_run = zero_run + 1 if p == 0.0 else 0
        if zero_run >= 3 and cum >= 1.0 - 1e-13:
            probs.extend([0.0] * (support_max - n))
            break
    tail = 1.0 - math.fsum(probs)
    if not abs(tail) <= _TABLE_TOL:
        raise NormalizationError(
            f"{what} table off normalization by {tail:.3e} (tolerance {_TABLE_TOL:.0e}); "
            "model is outside the stable evaluation regime"
        )
    return DistributionTable(support_max=support_max, probs=tuple(probs), tail_mass=tail)


def pmf_complete_table(model: IntervalModel) -> DistributionTable:
    """Full complete-count pmf for n = 0..floor(length / radius).

    Raises:
        NormalizationError: If the table misses normalization by more
            than 1e-9, signalling the unstable evaluation regime.
    """
    support = floor_ratio(model.length, model.params.radius)
    return _build_table(lambda n: pmf_complete(model, n), support, "complete-count")


def pmf_incomplete_table(model: IntervalModel) -> DistributionTable:
    """Full incomplete-count pmf for n = 0..floor(length / radius) + 1.

    Raises:
        CapacityError: Before any work (its first entry, pmf_incomplete,
            raises), if floor(length / radius) + 1 exceeds
            INCOMPLETE_SUPPORT_BUDGET.
        NormalizationError: As pmf_complete_table.
    """
    support = floor_ratio(model.length, model.params.radius) + 1
    return _build_table(lambda n: pmf_incomplete(model, n), support, "incomplete-count")


def pmf_circle_table(model: IntervalModel) -> DistributionTable:
    """Full circle-count pmf for n = 0..floor(length / radius)."""
    support = floor_ratio(model.length, model.params.radius)
    return _build_table(lambda n: pmf_circle(model, n), support, "circle-count")


def moment_complete(model: IntervalModel, m: int) -> float:
    """m-th raw moment of the complete-cluster count, 1 <= m <= 64.

    Stirling numbers enter as exact integers and become floats only at
    the final multiply, so the alternating structure cannot inherit
    integer overflow.
    """
    if m < 1:
        raise ValueError(f"moment order must be positive, got {m}")
    lam, eps = model.params.intensity, model.params.radius
    L = model.length
    a = lam * math.exp(-eps * lam)
    row = stirling_row(m)
    terms = []
    for k in range(1, m + 1):
        if not L > k * eps:
            break
        try:
            terms.append(float(row.values[k]) * ((L - k * eps) * a) ** k)
        except OverflowError:
            terms.append(math.inf)
    return math.fsum(terms)


def mean_complete(model: IntervalModel) -> float:
    """Mean complete-cluster count, (L - eps) lam e^{-lam eps} for L > eps."""
    lam, eps = model.params.intensity, model.params.radius
    L = model.length
    if not L > eps:
        return 0.0
    return (L - eps) * lam * math.exp(-eps * lam)


def var_complete(model: IntervalModel) -> float:
    """Variance of the complete-cluster count.

    Uses the compact closed form for L > 2 eps and the indicator form of
    the second moment otherwise; the two agree where both apply.
    """
    lam, eps = model.params.intensity, model.params.radius
    L = model.length
    if not L > eps:
        return 0.0
    mean = mean_complete(model)
    if L > 2.0 * eps:
        return mean + eps * (3.0 * eps - 2.0 * L) * lam**2 * math.exp(-2.0 * eps * lam)
    return mean * (1.0 - mean)


def mean_peak(model: IntervalModel) -> tuple[float, float]:
    """Intensity maximizing the mean count, and the maximum value.

    The peak sits where the mean inter-point gap equals the radius:
    intensity 1/eps, value (L/eps - 1) e^{-1}.

    Raises:
        ValueError: If length <= radius (the mean is identically zero).
    """
    eps = model.params.radius
    L = model.length
    if not L > eps:
        raise ValueError(f"no interior maximum: length {L} <= radius {eps}")
    return 1.0 / eps, (L / eps - 1.0) * math.exp(-1.0)


def _bisect(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fm = f(mid)
        if (flo <= 0.0) == (fm <= 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def var_critical_points(model: IntervalModel) -> tuple[float, ...]:
    """All critical intensities of the count variance, ascending.

    1/eps is always critical. For L > 2 eps two further roots of
    lam e^{-lam eps} = (L - eps) / (2 eps (2L - 3 eps)) may exist, one on
    each side of 1/eps; they disappear when the right-hand side exceeds
    the peak value e^{-1}/eps. Roots are located by bracketed bisection
    to 1e-10 on the intensity.
    """
    eps = model.params.radius
    L = model.length
    center = 1.0 / eps
    if not L > 2.0 * eps:
        return (center,)
    rhs = (L - eps) / (2.0 * eps * (2.0 * L - 3.0 * eps))
    peak = math.exp(-1.0) / eps
    if rhs >= peak * (1.0 - 1e-12):
        return (center,)

    def f(lam: float) -> float:
        return lam * math.exp(-lam * eps) - rhs

    low = _bisect(f, 1e-300, center)
    hi = center * 2.0
    while f(hi) > 0.0:
        hi *= 2.0
    high = _bisect(f, center, hi)
    return (low, center, high)


def coverage_prob(model: IntervalModel) -> float:
    """Probability that [0, L] is fully covered. Authoritative value.

    Renewal identity p0(L) - e^{-lam eps} p0(L - eps), with p0 the
    zero-cluster profile (1 for arguments <= 0). [0, L] is covered exactly
    when no cluster completes inside it and the first point lies within
    one radius of the origin; by memorylessness the runs without a point
    in [0, eps] carry e^{-lam eps} p0(L - eps). A finite sum of the
    profile the complete-count pmf uses, with the same precision
    escalation and PrecisionWarning; for L <= radius it is 1 - e^{-lam eps}.
    """
    lam, eps = model.params.intensity, model.params.radius
    L = model.length
    what = "coverage_prob"
    value = _profile(lam, eps, L, 0, what) - math.exp(-lam * eps) * _profile(lam, eps, L - eps, 0, what)
    return min(1.0, max(0.0, value))


def coverage_prob_closed(model: IntervalModel) -> float:
    """Experimental closed-form coverage value.

    Evaluates the printed finite-sum combination

        R_{0,1}(L) - e^{-lam eps} R_{0,1}(L - eps)
        - e^{-lam eps} R_{1,0}(L) + e^{-2 lam eps} R_{1,0}(L - eps)

    with R_{m,n}(x) = sum_{i=m}^{floor(x/eps)-1} e^{-lam eps (i+n)}
    * partial_exp_sum(i+n, lam ((1-i) eps - x)). The inner argument's sign
    is dubious, so this value is cross-checked against coverage_prob and
    reported with a mismatch flag rather than trusted.
    """
    lam, eps = model.params.intensity, model.params.radius
    L = model.length

    def r(m: int, n: int, x: float) -> float:
        upper = floor_ratio(x, eps) - 1 if x > 0 else -1
        terms = [
            math.exp(-lam * eps * (i + n)) * partial_exp_sum(i + n, lam * ((1 - i) * eps - x))
            for i in range(m, upper + 1)
        ]
        return math.fsum(terms)

    damp = math.exp(-lam * eps)
    return (
        r(0, 1, L)
        - damp * r(0, 1, L - eps)
        - damp * r(1, 0, L)
        + damp * damp * r(1, 0, L - eps)
    )


@dataclass(frozen=True)
class CoverageReport:
    """Authoritative coverage value next to the experimental closed form.

    ``quadrature`` holds the renewal-identity value of coverage_prob; the
    field keeps its name, from the quadrature route it replaced, for
    compatibility.
    """

    quadrature: float
    closed_form: float
    mismatch: bool


def coverage_report(model: IntervalModel) -> CoverageReport:
    """Both coverage routes plus the mismatch flag (|difference| > 1e-6)."""
    quad = coverage_prob(model)
    closed = coverage_prob_closed(model)
    return CoverageReport(
        quadrature=quad,
        closed_form=closed,
        mismatch=not abs(quad - closed) <= COVERAGE_MISMATCH_TOL,
    )

"""Kernels for the complete-count probability profile.

``count_prob(lam, eps, x, n)`` evaluates the probability that the interval
[0, x] holds exactly n complete clusters:

    p_n(x) = (1/n!) * sum_{i=0}^{floor(x/eps) - n}
             ((-1)^i / i!) * ((x - (n+i) eps) * lam * e^{-lam eps})^{n+i}

The series is written once, over a NumberSystem: DOUBLES accumulates the
alternating sum exactly with math.fsum, and digits(dps) sums it in order in
mpmath at dps digits, which count_prob_mp re-runs for the 30/60/120-digit
escalation. Either pass returns the sum of absolute terms alongside so
callers can estimate cancellation. Terms are cut off early once a rigorous
bound on the remaining tail drops below 1e-18 of the leading term
(10^-(dps+20) of it at dps digits, and never below 1e-300); within the
documented double-precision regime this changes nothing, and it keeps
tiny-radius limits (floor(x/eps) in the millions) affordable.

With ``lag=1`` every exponent is one lower and both sums are scaled by x a,
a = lam e^{-lam eps}: that is the cluster count on a circle of circumference
x, x a p_{n-1}(x - eps) / n for n >= 1 and p_0(x) - a eps p_0(x - eps) at 0.

``count_prob_steps`` solves the delay equation p_n'(x) = a [p_{n-1}(x - eps)
- p_n(x - eps)], a = lam e^{-lam eps}, p_n = delta_{n0} on [0, eps], by the
method of steps: on step j (x = eps (j + t), 0 <= t <= 1) each p_n is a
polynomial in t, one integration of the last step's. Nothing cancels. Its
t^m coefficient is G_m v_{j-m}, where v_i holds the profile at i eps and the
lag matrix G_m = (a eps)^m / m! (S - I)^m is filled from a binomial table;
each coefficient is formed once per step, and each point runs Horner's rule
over its own step's coefficients.
``count_prob_deriv_grid`` reads p_n' off the same equation, so the span
CDF and its density share that one kernel. ``count_prob_grid`` sums the
alternating series over an array in plain doubles; it backs the Laplace
check, whose quadrature must stay independent of the kernel, and the tests'
oracles.

The scalar series needs only math (and mpmath for digit passes); the three
array kernels import numpy when called, so the scalar path runs without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

from .errors import CapacityError
from .special_fn import partial_exp_sum

if TYPE_CHECKING:  # the array kernels import numpy when called
    import numpy as np

# Tolerance on floor(x/eps): at exact lattice multiples the extra term is
# identically zero, so this only suppresses floating-point flicker.
FLOOR_SLACK = 1e-12

_TAIL_CUTOFF = 1e-18
_LOG_UNDERFLOW = -760.0

# Method of steps: coefficient m is at most (2 a eps)^m / m!, a eps <= 1/e, so
# under 3e-29 past degree 24. Steps stop once P(N <= n_max) < 2^-60.
_STEP_DEGREE = 24
_STEP_TAIL = 2.0**-60
STEP_TABLE_BUDGET = 1 << 19


def floor_ratio(x: float, eps: float) -> int:
    """floor(x / eps) with slack against floating-point flicker."""
    return int(math.floor(x / eps + FLOOR_SLACK))


def _initial_bound(c: float, n: int, inv_nfact: float) -> float:
    """c^n / n! without raising on overflow (inf disables early cutoff)."""
    if c <= 0.0:
        return inv_nfact
    try:
        return inv_nfact * c**n
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class NumberSystem:
    """What a count series computes in: doubles, or mpmath at some digits."""

    num: Callable
    exp: Callable
    total: Callable  # math.fsum, or an in-order sum whose digits absorb the rounding
    exp_partial: Callable  # sum_{j<=k} y^j / j!, compensated in doubles
    inv_fact: Callable  # i -> 1/i!
    tail_cut: float  # the p_n sum stops once its tail bound is below this times its leading term
    working_mass: bool  # incomplete mass counts the partial sums' working magnitude


def _inv_fact_table(one, far: Callable) -> Callable:
    """i -> 1/i!, from a table up to 170 and from ``far`` past it."""
    table = tuple(one / math.factorial(i) for i in range(171))
    return lambda i: table[i] if i <= 170 else far(i)


def _exp_partial_in_order(j_max: int, y):
    """sum_{j=0}^{j_max} y^j / j! in order: at dps digits compensation gains
    no accuracy and makes a G table about 1.6 times slower.
    """
    total = term = 1
    for j in range(1, j_max + 1):
        term *= y / j
        total += term
    return total


_inv_fact_double = _inv_fact_table(1.0, lambda i: math.exp(-math.lgamma(i + 1)))
# partial_exp_sum is looked up per call, so a traced run still sees the double pass call it
DOUBLES = NumberSystem(
    float, math.exp, math.fsum, lambda k, y: partial_exp_sum(k, y), _inv_fact_double, _TAIL_CUTOFF, True
)


@lru_cache(maxsize=None)
def digits(dps: int) -> NumberSystem:
    """mpmath at ``dps`` significant digits, in a context of its own."""
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = dps
    inv_fact = _inv_fact_table(ctx.mpf(1), lambda i: 1 / ctx.factorial(i))
    return NumberSystem(ctx.mpf, ctx.exp, sum, _exp_partial_in_order, inv_fact, 10.0 ** -(dps + 20), False)


def as_doubles(value, mass) -> tuple[float, float]:
    """A digit pass's (value, mass) as doubles, the mass capped at 1e300."""
    return float(value), float(min(mass, 1e300))


def count_prob(lam: float, eps: float, x: float, n: int, *, lag: int = 0) -> tuple[float, float]:
    """Raw probability of n complete clusters on [0, x], plus |term| mass.

    Returns:
        (value, abs_sum) where value is the unclamped alternating sum and
        abs_sum is the sum of absolute term magnitudes (for cancellation
        estimates). For x <= 0 the profile is 1 at n = 0 and 0 otherwise.
        ``lag=1`` gives the circle count on circumference x instead.
    """
    return _pn_sum(DOUBLES, lam, eps, x, n, lag)


def count_prob_mp(lam: float, eps: float, x: float, n: int, dps: int, *, lag: int = 0) -> tuple[float, float]:
    """count_prob's series re-run at ``dps`` digits, when the double pass cancels too much."""
    return as_doubles(*_pn_sum(digits(dps), lam, eps, x, n, lag))


def _pn_sum(ar: NumberSystem, lam: float, eps: float, x: float, n: int, lag: int) -> tuple:
    """The p_n series in the arithmetic ``ar``, with its sum of |term|; lag 1 lowers every exponent, scaling both by x a."""
    if x <= 0.0:
        one = 1.0 if n == 0 else 0.0
        return one, one
    i_max = floor_ratio(x, eps) - n
    if i_max < 0:
        return 0.0, 0.0
    lam_n, eps_n, x_n = ar.num(lam), ar.num(eps), ar.num(x)
    a = lam_n * ar.exp(-lam_n * eps_n)
    c = x * float(a)  # upper bound on every term base
    if n > 0:
        # for huge n every term (a lagged one once scaled by x a) underflows,
        # and b**k could overflow before the inverse factorials bring it back.
        log_lead = n * math.log(c) - math.lgamma(n + 1) if c > 0 else _LOG_UNDERFLOW
        if log_lead < _LOG_UNDERFLOW:
            return 0.0, 0.0
    inv_nfact = ar.inv_fact(n)
    terms, scale = [], x_n * a if lag else 1
    bound = _initial_bound(c, n - lag, _inv_fact_double(n))  # |term i| <= c^(n+i-lag) / (n! i!)
    for i in range(i_max + 1):
        k = n + i
        b = (x_n - k * eps_n) * a
        try:
            mag = b ** (k - lag) * inv_nfact * ar.inv_fact(i)
        except (OverflowError, ZeroDivisionError):  # b**k overflowed, or the lag's b**-1 with a underflowed
            return math.nan, math.inf  # far outside the stable regime; callers flag it
        terms.append(-mag if i % 2 else mag)
        if i == 0:
            cut = max(ar.tail_cut * abs(float(mag)), 1e-300)  # relative to the leading term
        else:
            bound *= c / i
            if c < 0.5 * (i + 1) and bound < cut:
                break
    return scale * ar.total(terms), scale * ar.total(map(abs, terms))


def _step_lags(h: float, width: int) -> np.ndarray:
    """The lag matrices G_m = h^m / m! (S - I)^m, m <= _STEP_DEGREE, shape
    (_STEP_DEGREE + 1, width, width): entry (i, i - k) of G_m is
    h^m / m! (-1)^(m - k) C(m, k), and every entry above the diagonal is 0.
    """
    import numpy as np

    deg = _STEP_DEGREE
    scale = [h**m / math.factorial(m) for m in range(deg + 1)]
    lags, rows = np.zeros((deg + 1, width, width)), np.arange(width)
    for k in range(min(deg, width - 1) + 1):
        band = [scale[m] * (-1) ** (m - k) * math.comb(m, k) for m in range(deg + 1)]
        lags[:, rows[k:], rows[: width - k]] = np.array(band)[:, None]
    return lags


def count_prob_steps(lam: float, eps: float, xs, n_max: int) -> np.ndarray:
    """p_0..p_{n_max} at xs by the method of steps, shape (n_max + 1, *xs.shape).

    With v_i = (p_0..p_{n_max})(i eps), zero before step 0, the coefficient
    of t^m on step j is G_m v_{j-m}, G_m = (a eps)^m / m! (S - I)^m with S
    the shift from count n - 1 to n (``_step_lags``). Each coefficient is
    formed once per step, up to the last step that holds a point; each point
    then runs Horner's rule over its step's coefficients, gathering one
    coefficient at a time, so memory stays O(N (n_max + 1)) for N points.
    Points past the first step where sum_k p_k < 2^-60 read 0, as
    P(N(x) <= n_max) does not increase.

    Raises:
        CapacityError: For a point past STEP_TABLE_BUDGET / (n_max + 1) steps
            when the profile has not fallen below 2^-60 by then.
    """
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    u, width, deg = xs.ravel() / eps, n_max + 1, _STEP_DEGREE
    h = lam * math.exp(-lam * eps) * eps
    lags = _step_lags(h, width)
    step = np.maximum(np.floor(u), 0.0)  # nan stays nan
    top, limit = np.nanmax(step, initial=0.0), STEP_TABLE_BUDGET // width
    # p_0(x) >= e^{-lam x} (no point in [0, x]) and >= 1 - a x (p_0' >= -a): no stop
    # by step `limit` if lam eps limit < 60 ln 2 or a eps limit < 1/2, so raise unbuilt
    unreachable = lam * eps * limit < 60.0 * math.log(2.0) or h * limit < 0.5
    steps = 0 if top > limit and unreachable else int(min(top, limit))
    weights = lags[::-1].transpose(1, 0, 2).reshape(width, -1)  # v_j = sum_m G_m v_{j-1-m}, oldest first
    flat = np.zeros((deg + 1 + steps) * width)  # calloc: pages past the stop stay untouched
    flat[deg * width] = 1.0
    values, stop = flat.reshape(-1, width), np.inf
    for j in range(1, steps + 1):
        np.dot(weights, flat[(j - 1) * width : (j + deg) * width], out=values[deg + j])
        if values[deg + j].sum() < _STEP_TAIL:
            stop = j
            break
    if stop == np.inf and top > limit:
        raise CapacityError(f"p_0..p_{n_max} at x = {top * eps:g} needs over {limit} steps of eps = {eps:g} (STEP_TABLE_BUDGET)")
    beyond = step >= stop
    index = np.where(beyond | np.isnan(step), 0.0, step).astype(np.intp)
    t = np.clip(u - index, 0.0, 1.0)
    rows = int(index.max(initial=0)) + 1  # steps 0..rows-1 hold every point
    table = values[: deg + rows].T.copy()  # count n's step values, one contiguous row per n
    coef, term, acc = np.empty((width, rows)), np.empty((width, u.size)), np.zeros((width, u.size))
    for m in range(deg, -1, -1):  # Horner's rule, one coefficient at a time
        lagged = table[:, deg - m : deg - m + rows]  # v_{j-m} for steps j < rows
        np.multiply(lags[m, 0, 0], lagged, out=coef)  # G_m v: G_m is constant along each subdiagonal
        for k in range(1, min(m, width - 1) + 1):
            coef[k:] += lags[m, k, 0] * lagged[:-k]
        acc *= t
        acc += np.take(coef, index, axis=1, out=term, mode="wrap")  # index < rows: skip the bounds check
    acc[:, beyond] = 0.0
    return acc.reshape((width, *xs.shape))


def count_prob_grid(lam: float, eps: float, xs: np.ndarray, n: int) -> np.ndarray:
    """Vectorized n-cluster probability profile over an array of lengths.

    Plain float64 accumulation (no fsum); intended for density grids and
    the tests' quadrature oracles, where 1e-12 accuracy is ample.
    """
    import numpy as np

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
        i_hi = floor_ratio(x_hi, eps) - n
        c = x_hi * a
        inv_nfact = _inv_fact_double(n)
        bound = _initial_bound(c, n, inv_nfact)
        for i in range(max(i_hi, 0) + 1):
            k = n + i
            slack = (k * eps) * (1.0 - FLOOR_SLACK) if k > 0 else 0.0
            active = positive & (xs >= slack)
            if not active.any():
                break
            b = (xs[active] - k * eps) * a
            inv_ifact = _inv_fact_double(i)
            term = (np.maximum(b, 0.0) ** k if k > 0 else np.ones_like(b)) * (inv_nfact * inv_ifact)
            out[active] += -term if i % 2 else term
            if i >= 1:
                bound *= c / i
                if c < 0.5 * (i + 1) and bound < _TAIL_CUTOFF:
                    break
        return out


def count_prob_deriv_grid(lam: float, eps: float, xs: np.ndarray, n: int) -> np.ndarray:
    """p_n' at xs by the delay equation: a [p_{n-1}(x - eps) - p_n(x - eps)]
    for x >= eps (the right derivative at lattice points), 0 below, on one
    count_prob_steps call. Raises CapacityError as count_prob_steps does.
    """
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    lagged = count_prob_steps(lam, eps, xs - eps, n)
    lower = lagged[n - 1] if n > 0 else 0.0
    slope = lam * math.exp(-lam * eps) * (lower - lagged[n])
    return np.where(xs >= eps * (1.0 - FLOOR_SLACK), slope, 0.0)

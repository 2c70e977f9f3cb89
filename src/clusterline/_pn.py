"""Scalar and vectorized kernels for the complete-count probability profile.

``count_prob(lam, eps, x, n)`` evaluates the probability that the interval
[0, x] holds exactly n complete clusters:

    p_n(x) = (1/n!) * sum_{i=0}^{floor(x/eps) - n}
             ((-1)^i / i!) * ((x - (n+i) eps) * lam * e^{-lam eps})^{n+i}

The alternating sum is accumulated exactly with math.fsum, and the sum of
absolute terms is returned alongside so callers can estimate cancellation.
Terms are cut off early once a rigorous bound on the remaining tail drops
below 1e-18 of the running scale; within the documented double-precision
regime this changes nothing, and it keeps tiny-radius limits (floor(x/eps)
in the millions) affordable.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerance on floor(x/eps): at exact lattice multiples the extra term is
# identically zero, so this only suppresses floating-point flicker.
FLOOR_SLACK = 1e-12

_TAIL_CUTOFF = 1e-18
_LOG_UNDERFLOW = -760.0


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


def count_prob(lam: float, eps: float, x: float, n: int) -> tuple[float, float]:
    """Raw probability of n complete clusters on [0, x], plus |term| mass.

    Returns:
        (value, abs_sum) where value is the unclamped alternating sum and
        abs_sum is the sum of absolute term magnitudes (for cancellation
        estimates). For x <= 0 the profile is 1 at n = 0 and 0 otherwise.
    """
    if x <= 0.0:
        one = 1.0 if n == 0 else 0.0
        return one, one
    i_max = floor_ratio(x, eps) - n
    if i_max < 0:
        return 0.0, 0.0
    a = lam * math.exp(-lam * eps)
    c = x * a  # upper bound on every term base
    if n > 0:
        # n! overflows float / gets slow as exact int for huge n; in that
        # regime every term underflows anyway.
        log_lead = n * math.log(c) - math.lgamma(n + 1) if c > 0 else _LOG_UNDERFLOW
        if log_lead < _LOG_UNDERFLOW:
            return 0.0, 0.0
    inv_nfact = 1.0 / float(math.factorial(n)) if n <= 170 else math.exp(-math.lgamma(n + 1))
    terms: list[float] = []
    mags: list[float] = []
    bound = _initial_bound(c, n, inv_nfact)
    for i in range(i_max + 1):
        k = n + i
        b = (x - k * eps) * a
        inv_ifact = 1.0 / float(math.factorial(i)) if i <= 170 else math.exp(-math.lgamma(i + 1))
        try:
            mag = (b**k if k > 0 else 1.0) * inv_nfact * inv_ifact
        except OverflowError:
            mag = math.inf  # far outside the stable regime; callers flag it
        terms.append(-mag if i % 2 else mag)
        mags.append(abs(mag))
        if not math.isfinite(mag):
            return math.nan, math.inf
        if i >= 1:
            bound *= c / i
            if c < 0.5 * (i + 1) and bound < _TAIL_CUTOFF:
                break
    return math.fsum(terms), math.fsum(mags)


def count_prob_mp(lam: float, eps: float, x: float, n: int, dps: int) -> tuple[float, float]:
    """Extended-precision re-evaluation of count_prob at ``dps`` digits.

    Used as a fallback when the double-precision cancellation estimate is
    too large; same term layout and early cutoff, evaluated with mpmath.
    """
    import mpmath as mp

    if x <= 0.0:
        one = 1.0 if n == 0 else 0.0
        return one, one
    i_max = floor_ratio(x, eps) - n
    if i_max < 0:
        return 0.0, 0.0
    with mp.workdps(dps):
        lam_mp = mp.mpf(lam)
        eps_mp = mp.mpf(eps)
        x_mp = mp.mpf(x)
        a = lam_mp * mp.exp(-lam_mp * eps_mp)
        n_fact = mp.factorial(n)
        total = mp.mpf(0)
        mass = mp.mpf(0)
        c = x * lam * math.exp(-lam * eps)
        log_c = math.log(c) if c > 0 else -math.inf
        log_bound = n * log_c - math.lgamma(n + 1)
        log_cut = -(dps + 20) * math.log(10.0)
        for i in range(i_max + 1):
            k = n + i
            b = (x_mp - k * eps_mp) * a
            term = (b**k if k > 0 else mp.mpf(1)) / (n_fact * mp.factorial(i))
            total += -term if i % 2 else term
            mass += abs(term)
            if i >= 1:
                log_bound += log_c - math.log(i)
                if c < 0.5 * (i + 1) and log_bound < log_cut:
                    break
        cap = mp.mpf("1e300")
        return float(total), float(min(mass, cap))


def count_prob_grid(lam: float, eps: float, xs: np.ndarray, n: int) -> np.ndarray:
    """Vectorized n-cluster probability profile over an array of lengths.

    Plain float64 accumulation (no fsum); intended for density grids and
    CDF panel integration where 1e-12 accuracy is ample.
    """
    return _grid_eval(_count_prob_grid_impl, lam, eps, xs, n)


def _count_prob_grid_impl(lam: float, eps: float, xs: np.ndarray, n: int) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
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
    inv_nfact = 1.0 / float(math.factorial(n)) if n <= 170 else math.exp(-math.lgamma(n + 1))
    bound = _initial_bound(c, n, inv_nfact)
    for i in range(max(i_hi, 0) + 1):
        k = n + i
        slack = (k * eps) * (1.0 - FLOOR_SLACK) if k > 0 else 0.0
        active = positive & (xs >= slack)
        if not active.any():
            break
        b = (xs[active] - k * eps) * a
        inv_ifact = 1.0 / float(math.factorial(i)) if i <= 170 else math.exp(-math.lgamma(i + 1))
        term = (np.maximum(b, 0.0) ** k if k > 0 else np.ones_like(b)) * (inv_nfact * inv_ifact)
        out[active] += -term if i % 2 else term
        if i >= 1:
            bound *= c / i
            if c < 0.5 * (i + 1) and bound < _TAIL_CUTOFF:
                break
    return out


def count_prob_deriv_grid(lam: float, eps: float, xs: np.ndarray, n: int) -> np.ndarray:
    """Vectorized derivative of the n-cluster probability profile."""
    return _grid_eval(_count_prob_deriv_grid_impl, lam, eps, xs, n)


def _count_prob_deriv_grid_impl(lam: float, eps: float, xs: np.ndarray, n: int) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    positive = xs > 0.0
    if not positive.any():
        return out
    a = lam * math.exp(-lam * eps)
    x_hi = float(xs[positive].max())
    x_lo = float(xs[positive].min())
    i_hi = floor_ratio(x_hi, eps) - n
    c = x_hi * a
    inv_nfact = 1.0 / float(math.factorial(n)) if n <= 170 else math.exp(-math.lgamma(n + 1))
    bound = _initial_bound(c, n, inv_nfact)
    for i in range(max(i_hi, 0) + 1):
        k = n + i
        if k >= 1:
            slack = (k * eps) * (1.0 - FLOOR_SLACK)
            active = positive & (xs >= slack)
            if not active.any():
                break
            b = np.maximum((xs[active] - k * eps) * a, 0.0)
            inv_ifact = 1.0 / float(math.factorial(i)) if i <= 170 else math.exp(-math.lgamma(i + 1))
            term = k * b ** (k - 1) * a * (inv_nfact * inv_ifact)
            out[active] += -term if i % 2 else term
        if i >= 1:
            bound *= c / i
            if c < 0.5 * (i + 1) and bound * 4.0 * (n + i + 1) < _TAIL_CUTOFF * x_lo:
                break
    return out


def _grid_eval(impl, lam, eps, xs, n):
    with np.errstate(over="ignore", invalid="ignore"):
        return impl(lam, eps, xs, n)

"""Independent oracles shared by the tests.

None of them imports the kernel it checks:

- span_tail_rate: the span law's exponential tail rate, by bisection on the
  dominant pole of its transform;
- span_density_by_series: the span density a [p0(x - eps) - e^{-lam eps}
  p0(x - 2 eps)] on the alternating-sum grid kernel. It checks the span
  law's density, the renewal CDF's derivative on the method-of-steps profile;
- p_n_by_digits and span_density_by_digits: the alternating sum and the
  renewal density at 80 digits in mpmath, sharing no code with the package;
- cycle_sum_density_by_digits: the cycle-sum density a p_{n-1}(x - eps) from
  p_n_by_digits. It checks cycle_sum_density, which reads the step table;
- circle_by_digits: the circle count from p_n_by_digits, L a p_{n-1}(L - eps)
  / n for n >= 1 and p_0(L) - a eps p_0(L - eps) at n = 0, with L - eps
  formed at the oracle's precision. It checks pmf_circle, which sums the
  lowered-exponent series in one pass;
- span_cdf_by_quadrature and cycle_sum_cdf_by_quadrature: PanelCdf
  quadrature of span_density_by_series and of the cycle-sum density (both
  on the alternating-sum grid kernel), cut where the tail rate leaves about
  e^{-36} mass and widened until the missing mass is below 1e-12. They check
  the renewal CDFs, which sum the method-of-steps profile;
- coverage_by_quadrature: first-point quadrature of the span survival,
  integrating span_density_by_series. It checks coverage_prob, which sums
  the scalar alternating-sum profile;
- incomplete_by_convolution: the incomplete count by conditioning on the
  last point, a quadrature of the method-of-steps profile. It shares that
  profile with the incomplete count's pass, so it checks the conditioning;
- incomplete_by_digits: the incomplete count as the alternating series of
  partial exponential sums, every term kept, at 120 digits in mpmath. It
  checks the incomplete count's pass, which sums no series.
"""

import functools
import itertools
import math
import operator

import mpmath
import numpy as np

from clusterline import ModelParams, mean_cluster_length
from clusterline._pn import count_prob_grid, count_prob_steps, floor_ratio
from clusterline.quadrature import PanelCdf, integrate_adaptive


def span_tail_rate(params: ModelParams) -> float:
    """Exponential decay rate of the span law's tail.

    The span transform has its dominant pole at minus the companion root
    of t e^{-t eps} = lam e^{-lam eps} (the root other than lam itself;
    at lam = 1/eps the two merge). Located by bracketed bisection.
    """
    lam, eps = params.intensity, params.radius
    a = lam * math.exp(-lam * eps)
    peak = 1.0 / eps
    if abs(lam * eps - 1.0) < 1e-9:
        return lam

    def g(t: float) -> float:
        return t * math.exp(-t * eps) - a

    if lam < peak:
        lo, hi = peak, 2.0 * peak
        while g(hi) > 0.0:
            hi *= 2.0
    else:
        lo, hi = 1e-300, peak
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        if (g(lo) <= 0.0) == (g(mid) <= 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def span_density_by_series(params: ModelParams):
    """Span density a [p0(x - eps) - e^{-lam eps} p0(x - 2 eps) 1{x >= 2 eps}]
    for x > eps, 0 below, a = lam e^{-lam eps}, on count_prob_grid."""
    lam, eps = params.intensity, params.radius
    damp = math.exp(-lam * eps)

    def density(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xs)
        inside = xs > eps
        if inside.any():
            u = xs[inside] - eps
            before = np.where(u >= eps, count_prob_grid(lam, eps, u - eps, 0)[0], 0.0)
            out[inside] = lam * damp * (count_prob_grid(lam, eps, u, 0)[0] - damp * before)
        return np.maximum(out, 0.0)

    return density


def p_n_by_digits(params: ModelParams, x, n: int = 0, dps: int = 80):
    """p_n(x) = (1/n!) sum_i (-1)^i ((x - (n+i) eps) a)^{n+i} / i!, every
    term kept, at dps digits in mpmath (an mpf)."""
    ctx = mpmath.MPContext()
    ctx.dps = dps
    lam, eps, x = ctx.mpf(params.intensity), ctx.mpf(params.radius), ctx.mpf(x)
    if x <= 0:
        return ctx.mpf(1 if n == 0 else 0)
    a = lam * ctx.exp(-lam * eps)
    inv_facts = itertools.accumulate(itertools.count(1), operator.truediv, initial=ctx.mpf(1))  # 1 / i!
    count = int(ctx.floor(x / eps)) - n + 1
    terms = ((-1) ** i * ((x - (n + i) * eps) * a) ** (n + i) * f for i, f in zip(range(count), inv_facts))
    return ctx.fsum(terms) / math.factorial(n)


def cycle_sum_density_by_digits(params: ModelParams, x: float, n: int, dps: int = 120):
    """The n-cycle-sum density a p_{n-1}(x - eps), a = lam e^{-lam eps}, at dps
    digits (an mpf); x - eps is formed in doubles, as the package forms it."""
    ctx = mpmath.MPContext()
    ctx.dps = dps
    if x <= params.radius:
        return ctx.mpf(0)
    lam, eps = ctx.mpf(params.intensity), ctx.mpf(params.radius)
    return lam * ctx.exp(-lam * eps) * ctx.mpf(p_n_by_digits(params, x - params.radius, n - 1, dps))


def circle_by_digits(params: ModelParams, length: float, n: int, dps: int = 80):
    """P(n clusters on a circle of circumference length), at dps digits (an mpf)."""
    ctx = mpmath.MPContext()
    ctx.dps = dps
    lam, eps, length = ctx.mpf(params.intensity), ctx.mpf(params.radius), ctx.mpf(length)
    a = lam * ctx.exp(-lam * eps)
    before = p_n_by_digits(params, length - eps, max(n - 1, 0), dps)  # L - eps an mpf, not a double
    if n == 0:
        return p_n_by_digits(params, length, 0, dps) - a * eps * before
    return length * a * before / n


def span_density_by_digits(params: ModelParams, x: float, dps: int = 80):
    """The span density at x by the renewal identity, every sum at dps digits (an mpf)."""
    ctx = mpmath.MPContext()
    ctx.dps = dps
    lam, eps, x = ctx.mpf(params.intensity), ctx.mpf(params.radius), ctx.mpf(x)
    if x <= eps:
        return ctx.mpf(0)
    damp = ctx.exp(-lam * eps)
    before = p_n_by_digits(params, x - 2 * eps, dps=dps) if x >= 2 * eps else 0
    return lam * damp * (p_n_by_digits(params, x - eps, dps=dps) - damp * before)


def _panel_cdf(density, eps: float, cut: float, missing) -> PanelCdf:
    """PanelCdf of density on [eps, cut], split at the lattice multiples of
    eps, with cut widened by half until missing(panel) < 1e-12."""
    for _ in range(60):
        lattice = [eps + k * eps for k in range(1, int(cut / eps) + 1)]
        panel = PanelCdf(density, eps, cut, breakpoints=lattice)
        if missing(panel) < 1e-12:
            return panel
        cut *= 1.5
    raise ArithmeticError(f"tail mass failed to fall below 1e-12 (last {missing(panel):.3e})")


def _vectorized(cdf_of):
    def cdf(x):
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.clip(cdf_of(xs), 0.0, 1.0)
        return float(out[0]) if scalar else out

    return cdf


def span_cdf_by_quadrature(params: ModelParams):
    """Span CDF: the atom e^{-lam eps} at the radius plus the panel-integrated
    span_density_by_series."""
    eps = params.radius
    atom = math.exp(-params.intensity * eps)
    cut = eps + 40.0 / (0.9 * span_tail_rate(params))
    panel = _panel_cdf(span_density_by_series(params), eps, cut, lambda p: 1.0 - atom - p.total)
    return _vectorized(lambda xs: np.where(xs >= eps, atom, 0.0) + np.asarray(panel(xs)))


def cycle_sum_cdf_by_quadrature(params: ModelParams, n: int):
    """CDF of n cycles: the panel-integrated density lam e^{-lam eps} p_{n-1}(x - eps)."""
    lam, eps = params.intensity, params.radius
    a = lam * math.exp(-lam * eps)

    def density(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xs)
        inside = xs > eps
        if inside.any():
            out[inside] = a * count_prob_grid(lam, eps, xs[inside] - eps, n - 1)[n - 1]
        return np.maximum(out, 0.0)

    mean_cycle = mean_cluster_length(params) + 1.0 / lam
    cut = (n + 1) * eps + n * mean_cycle + 40.0 / (0.9 * min(span_tail_rate(params), lam))
    panel = _panel_cdf(density, eps, cut, lambda p: 1.0 - p.total)
    return _vectorized(lambda xs: np.asarray(panel(xs)))


def coverage_by_quadrature(lam, eps, length):
    """First-point quadrature: integrates lam e^{-lam x} P(span >= L - x)
    over the first-point position x in [0, eps], with the span survival
    taken from the span law's atom and its panel-integrated density
    (span_density_by_series)."""
    if length <= eps:
        # span >= radius >= L - x for every x in [0, eps]: survival is 1
        value, _, _ = integrate_adaptive(lambda xs: lam * np.exp(-lam * xs), 0.0, eps, abs_tol=1e-10)
        return value
    atom = math.exp(-lam * eps)
    lattice = [eps + k * eps for k in range(1, floor_ratio(length, eps) + 1)]
    density = span_density_by_series(ModelParams(lam, eps))
    partial = PanelCdf(density, eps, length, breakpoints=[t for t in lattice if t < length])

    def integrand(xs):
        t = length - xs
        below = np.where(t > eps, atom + np.asarray(partial(t), dtype=float), 0.0)
        return lam * np.exp(-lam * xs) * (1.0 - below)

    cuts = [length - k * eps for k in range(1, floor_ratio(length, eps) + 2)]
    cuts = [c for c in cuts if 0.0 < c < eps]
    value, _, _ = integrate_adaptive(integrand, 0.0, eps, abs_tol=1e-10, breakpoints=cuts)
    return value


def incomplete_by_convolution(lam, eps, length, n):
    """P(n clusters touch [0, L]), by conditioning on the last point in [0, L].

    q_n(L) = delta_{n0} e^{-lam L} + int_0^L lam e^{-lam r} p_{n-1}(L - r) dr:
    with the last point at L - r, the clusters touching [0, L] are the
    complete clusters of [0, L - r] and the one holding that point. The
    profile has rows up to floor(L/eps), which sum to 1 on [0, L], so the
    kernel's tail stop never fires; panels break at the kinks L - k eps.
    """
    if n == 0:
        return math.exp(-lam * length)
    n_max = max(floor_ratio(length, eps), n - 1)

    def integrand(r):
        return lam * np.exp(-lam * r) * count_prob_steps(lam, eps, length - r, n_max)[n - 1]

    kinks = [length - k * eps for k in range(1, floor_ratio(length, eps) + 1)]
    value, _, _ = integrate_adaptive(integrand, 0.0, length, abs_tol=1e-14, breakpoints=kinks)
    return value


@functools.lru_cache(maxsize=None)
def _incomplete_pair_sums(lam: float, eps: float, length: float, dps: int) -> tuple:
    """H(i) = G(i - 1) + G(i) for i = 0..K + 1, K the last k with k eps < L,
    of G(-1) = e^{-lam L} and G(k) = (-1)^k (e^{-k lam eps} sum_{j<=k} y^j / j!
    - e^{-lam L}), y = lam (k eps - L), every term kept, at dps digits."""
    ctx = mpmath.MPContext()
    ctx.dps = dps
    lam, eps, length = ctx.mpf(lam), ctx.mpf(eps), ctx.mpf(length)
    empty = ctx.exp(-lam * length)
    summands = [empty]
    k = 0
    while k * eps < length:
        y = lam * (k * eps - length)
        partial = ctx.fsum(itertools.accumulate(range(1, k + 1), lambda term, j: term * y / j, initial=ctx.mpf(1)))
        summands.append((-1) ** k * (ctx.exp(-k * lam * eps) * partial - empty))
        k += 1
    summands.append(ctx.mpf(0))
    return tuple(map(operator.add, summands, summands[1:]))


def incomplete_by_digits(params: ModelParams, length: float, n: int, dps: int = 120):
    """P(n clusters touch [0, L]) = sum_{i>=n} (-1)^{i+n} C(i, n) H(i), the
    series of partial exponential sums, every term kept, at dps digits (an mpf)."""
    ctx = mpmath.MPContext()
    ctx.dps = dps
    pairs = _incomplete_pair_sums(params.intensity, params.radius, length, dps)
    return ctx.fsum((-1) ** (i + n) * math.comb(i, n) * pairs[i] for i in range(n, len(pairs)))

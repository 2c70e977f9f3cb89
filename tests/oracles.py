"""Independent oracles shared by the tests.

None of them imports the kernel it checks:

- span_tail_rate: the span law's exponential tail rate, by bisection on the
  dominant pole of its transform;
- span_cdf_by_quadrature and cycle_sum_cdf_by_quadrature: PanelCdf
  quadrature of the span-law density (the alternating-sum grid kernels)
  and of the cycle-sum density, cut where the tail rate leaves about e^{-36}
  mass and widened until the missing mass is below 1e-12. They check the
  renewal CDFs, which sum the method-of-steps profile;
- coverage_by_quadrature: first-point quadrature of the span survival. It
  checks coverage_prob, which sums the scalar alternating-sum profile.
"""

import math

import numpy as np

from clusterline import ModelParams, cluster_length_law, mean_cluster_length
from clusterline._pn import count_prob_grid, floor_ratio
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
    """Span CDF: the atom at the radius plus the panel-integrated density."""
    eps = params.radius
    law = cluster_length_law(params)
    cut = eps + 40.0 / (0.9 * span_tail_rate(params))
    panel = _panel_cdf(law.density, eps, cut, lambda p: 1.0 - law.atom_mass - p.total)
    return _vectorized(lambda xs: np.where(xs >= eps, law.atom_mass, 0.0) + np.asarray(panel(xs)))


def cycle_sum_cdf_by_quadrature(params: ModelParams, n: int):
    """CDF of n cycles: the panel-integrated density lam e^{-lam eps} p_{n-1}(x - eps)."""
    lam, eps = params.intensity, params.radius
    a = lam * math.exp(-lam * eps)

    def density(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xs)
        inside = xs > eps
        if inside.any():
            out[inside] = a * count_prob_grid(lam, eps, xs[inside] - eps, n - 1)
        return np.maximum(out, 0.0)

    mean_cycle = mean_cluster_length(params) + 1.0 / lam
    cut = (n + 1) * eps + n * mean_cycle + 40.0 / (0.9 * min(span_tail_rate(params), lam))
    panel = _panel_cdf(density, eps, cut, lambda p: 1.0 - p.total)
    return _vectorized(lambda xs: np.asarray(panel(xs)))


def coverage_by_quadrature(lam, eps, length):
    """First-point quadrature: integrates lam e^{-lam x} P(span >= L - x)
    over the first-point position x in [0, eps], with the span survival
    taken from the span law's atom and its panel-integrated density."""
    if length <= eps:
        # span >= radius >= L - x for every x in [0, eps]: survival is 1
        value, _, _ = integrate_adaptive(lambda xs: lam * np.exp(-lam * xs), 0.0, eps, abs_tol=1e-10)
        return value
    law = cluster_length_law(ModelParams(lam, eps))
    lattice = [eps + k * eps for k in range(1, floor_ratio(length, eps) + 1)]
    partial = PanelCdf(law.density, eps, length, breakpoints=[t for t in lattice if t < length])

    def integrand(xs):
        t = length - xs
        below = np.where(t > eps, law.atom_mass + np.asarray(partial(t), dtype=float), 0.0)
        return lam * np.exp(-lam * xs) * (1.0 - below)

    cuts = [length - k * eps for k in range(1, floor_ratio(length, eps) + 2)]
    cuts = [c for c in cuts if 0.0 < c < eps]
    value, _, _ = integrate_adaptive(integrand, 0.0, eps, abs_tol=1e-10, breakpoints=cuts)
    return value

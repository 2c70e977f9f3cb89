"""Closed-form laws of the cluster geometry.

A cluster is a maximal chain of points whose consecutive gaps stay within
the connection radius; its span runs from the first point to the last point
plus one radius. The span law is mixed: a point mass e^{-lam*eps} at exactly
one radius (clusters made of a single point) plus an absolutely continuous
part expressed through the zero-cluster probability profile and its
derivative. Cycle quantities (span plus the following exponential gap) have
plain densities.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ._pn import count_prob, count_prob_grid, count_prob_deriv_grid
from .quadrature import PanelCdf

# Exponent guard: above this, e^{(lam+s)eps} overflows and the transforms
# switch to their stable rearrangement.
_EXP_GUARD = 700.0


@dataclass(frozen=True)
class ModelParams:
    """Deployment model: Poisson intensity and connection radius.

    Attributes:
        intensity: Points per unit length (> 0).
        radius: Connection radius; two points link when their gap is at
            most this (> 0, same length units).
    """

    intensity: float
    radius: float

    def __post_init__(self):
        if not (self.intensity > 0.0 and math.isfinite(self.intensity)):
            raise ValueError(f"intensity must be positive and finite, got {self.intensity}")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")


@dataclass(frozen=True)
class MixedLaw:
    """Atom-plus-density representation of a distribution on the line.

    Attributes:
        atom_location: Position of the point mass.
        atom_mass: Probability carried by the atom, in [0, 1].
        density: Density of the continuous part; accepts scalars or arrays,
            zero below support_lower.
        support_lower: Left edge of the support.
    """

    atom_location: float
    atom_mass: float
    density: Callable[[float | np.ndarray], float | np.ndarray] = field(repr=False)
    support_lower: float = 0.0


def laplace_cluster_length(params: ModelParams, s: float) -> float:
    """Laplace transform of the cluster span at argument s >= 0.

    Closed form (lam + s) / (lam + s e^{(lam+s) eps}); evaluated through
    the rearrangement (lam + s) e^{-w} / (lam e^{-w} + s) with
    w = (lam + s) eps so large arguments cannot overflow.
    """
    if s < 0.0:
        raise ValueError(f"transform argument must be non-negative, got {s}")
    if s == 0.0:
        return 1.0
    lam, eps = params.intensity, params.radius
    w = (lam + s) * eps
    if w <= _EXP_GUARD:
        return (lam + s) / (lam + s * math.exp(w))
    damp = math.exp(-w)
    return (lam + s) * damp / (lam * damp + s)


def laplace_cycle_length(params: ModelParams, s: float) -> float:
    """Laplace transform of one full cycle: cluster span plus the
    exponential gap to the next cluster start.

    Equals the span transform times lam / (lam + s) by independence of the
    span and the following gap.
    """
    if s < 0.0:
        raise ValueError(f"transform argument must be non-negative, got {s}")
    if s == 0.0:
        return 1.0
    lam, eps = params.intensity, params.radius
    w = (lam + s) * eps
    if w <= _EXP_GUARD:
        return lam / (lam + s * math.exp(w))
    damp = math.exp(-w)
    return lam * damp / (lam * damp + s)


def laplace_cycle_sum(params: ModelParams, n: int, s: float) -> float:
    """Laplace transform of the sum of n consecutive cycles.

    The cycles are independent and identically distributed, so the
    transform is the single-cycle transform to the n-th power. n = 0
    returns 1 (empty-sum convention).
    """
    if n < 0:
        raise ValueError(f"cycle count must be non-negative, got {n}")
    if n == 0:
        return 1.0
    return laplace_cycle_length(params, s) ** n


def mean_cluster_length(params: ModelParams) -> float:
    """Mean cluster span, (e^{lam*eps} - 1) / lam."""
    return math.expm1(params.intensity * params.radius) / params.intensity


def cluster_length_law(params: ModelParams) -> MixedLaw:
    """Mixed law of the cluster span.

    Atom of mass e^{-lam*eps} at exactly one radius (single-point
    clusters), plus for x above the radius the density

        lam e^{-lam eps} p0(x - eps) + e^{-lam eps} p0'(x - eps)

    where p0 is the zero-cluster probability profile. The atom is forced
    by the jump of p0 from 0 to 1 at argument zero; without it the density
    alone would integrate to 1 - e^{-lam*eps}.
    """
    lam, eps = params.intensity, params.radius
    a = lam * math.exp(-lam * eps)
    damp = math.exp(-lam * eps)

    def density(x):
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xs)
        inside = xs > eps
        if inside.any():
            u = xs[inside] - eps
            out[inside] = a * count_prob_grid(lam, eps, u, 0) + damp * count_prob_deriv_grid(lam, eps, u, 0)
        out = np.maximum(out, 0.0)
        return float(out[0]) if scalar else out

    return MixedLaw(
        atom_location=eps,
        atom_mass=math.exp(-lam * eps),
        density=density,
        support_lower=eps,
    )


def cluster_length_density_at(params: ModelParams, x: float) -> float:
    """Scalar density of the cluster span at x: cluster_length_law(params).density(x)."""
    return cluster_length_law(params).density(x)


def cycle_sum_density(params: ModelParams, n: int, x: float) -> float:
    """Density of the sum of n cycles at x.

    Equals lam e^{-lam eps} p_{n-1}(x - eps) above the radius and zero at
    or below it.
    """
    if n < 1:
        raise ValueError(f"cycle count must be positive, got {n}")
    lam, eps = params.intensity, params.radius
    if x <= eps:
        return 0.0
    value, _ = count_prob(lam, eps, x - eps, n - 1)
    return max(0.0, lam * math.exp(-lam * eps) * value)


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


def _span_tail_cut(params: ModelParams, floor_at: float = 0.0) -> float:
    """Truncation point past which the span law carries ~e^{-36} mass."""
    return max(floor_at, params.radius + 40.0 / (0.9 * span_tail_rate(params)))


def cluster_length_cdf(params: ModelParams, x_max: float | None = None) -> Callable:
    """CDF of the cluster span as a vectorized callable.

    Right-continuous; jumps by the atom mass at the radius. The density is
    integrated on panels split at lattice multiples of the radius, with the
    truncation point chosen from the tail decay rate and extended until the
    missing mass check passes explicitly (not assumed).
    """
    lam, eps = params.intensity, params.radius
    law = cluster_length_law(params)
    cut = _span_tail_cut(params, floor_at=x_max or 0.0)
    for _ in range(60):
        lattice = [eps + k * eps for k in range(1, int(cut / eps) + 1)]
        panel = PanelCdf(law.density, eps, cut, breakpoints=lattice)
        missing = 1.0 - law.atom_mass - panel.total
        if missing < 1e-12:
            break
        cut *= 1.5
    else:
        raise ArithmeticError(f"span tail mass failed to fall below 1e-12 (last {missing:.3e})")

    def cdf(x):
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.where(xs >= eps, law.atom_mass, 0.0) + np.asarray(panel(xs))
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if scalar else out

    return cdf


def cycle_sum_cdf(params: ModelParams, n: int, x_max: float | None = None) -> Callable:
    """CDF of the sum of n cycles as a vectorized callable (no atom)."""
    if n < 1:
        raise ValueError(f"cycle count must be positive, got {n}")
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
    base_cut = (n + 1) * eps + n * mean_cycle + 40.0 / (0.9 * min(span_tail_rate(params), lam))
    cut = max(base_cut, x_max or 0.0)
    for _ in range(60):
        lattice = [eps + k * eps for k in range(1, int(cut / eps) + 1)]
        panel = PanelCdf(density, eps, cut, breakpoints=lattice)
        if 1.0 - panel.total < 1e-12:
            break
        cut *= 1.5
    else:
        raise ArithmeticError("cycle-sum tail mass failed to fall below 1e-12")

    def cdf(x):
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.clip(np.asarray(panel(xs)), 0.0, 1.0)
        return float(out[0]) if scalar else out

    return cdf

"""Closed-form laws of the cluster geometry.

A cluster is a maximal chain of points whose consecutive gaps stay within
the connection radius; its span runs from the first point to the last point
plus one radius. The span law is mixed: a point mass e^{-lam*eps} at exactly
one radius (clusters made of a single point) plus an absolutely continuous
part expressed through the zero-cluster probability profile and its
derivative. Cycle quantities (span plus the following exponential gap) have
plain densities.

The span and cycle-sum CDFs are finite sums of the method-of-steps profile
p_n (_pn.count_prob_steps) by the renewal identities, with no quadrature,
and the span density is the span CDF's derivative, with p0' from the delay
equation on the same kernel. The cycle-sum density is a p_{n-1}(x - eps),
read point by point off the same step table with no tail stop
(_pn.count_prob_at), so it needs no numpy. All of them share one cached
step table per model and width. The transforms are written in the paper's
variable c = lam e^{-(lam + s) eps}, which underflows where e^{(lam + s) eps}
would overflow.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ._pn import count_prob_at, count_prob_deriv_grid, count_prob_steps

if TYPE_CHECKING:  # the density and CDF closures import numpy when called
    import numpy as np

# what simulate and compare sample: three count tables, coverage, the span and the cycle sum
SCENARIOS = ("complete", "incomplete", "circle", "coverage", "b_law", "u_law")


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
    """Laplace transform of the cluster span at argument s >= 0:
    (lam + s) e^{-(lam + s) eps} / (s + c), c = lam e^{-(lam + s) eps},
    and 0 at s = inf, as the span is at least eps.
    """
    if not s >= 0.0:
        raise ValueError(f"transform argument must be non-negative, got {s}")
    if s == 0.0:
        return 1.0
    if s == math.inf:
        return 0.0
    lam, eps = params.intensity, params.radius
    damp = math.exp(-(lam + s) * eps)  # underflows to 0 where e^{(lam + s) eps} would overflow
    return (lam + s) * damp / (s + lam * damp)


def laplace_cycle_length(params: ModelParams, s: float) -> float:
    """Laplace transform of one full cycle: cluster span plus the
    exponential gap to the next cluster start, c / (s + c).

    Equals the span transform times lam / (lam + s) by independence of the
    span and the following gap.
    """
    if not s >= 0.0:
        raise ValueError(f"transform argument must be non-negative, got {s}")
    if s == 0.0:
        return 1.0
    c = params.intensity * math.exp(-(params.intensity + s) * params.radius)
    return c / (s + c)


def laplace_cycle_sum(params: ModelParams, n: int, s: float) -> float:
    """Laplace transform of the sum of n consecutive cycles.

    The cycles are independent and identically distributed, so the
    transform is the single-cycle transform to the n-th power. n = 0
    returns 1 (empty-sum convention).
    """
    if n < 0:
        raise ValueError(f"cycle count must be non-negative, got {n}")
    return laplace_cycle_length(params, s) ** n


def mean_cluster_length(params: ModelParams) -> float:
    """Mean cluster span, (e^{lam*eps} - 1) / lam; inf where e^{lam*eps}
    overflows (lam*eps above about 709.78)."""
    try:
        grown = math.expm1(params.intensity * params.radius)
    except OverflowError:
        return math.inf
    return grown / params.intensity


def cluster_length_law(params: ModelParams) -> MixedLaw:
    """Mixed law of the cluster span.

    Atom of mass e^{-lam*eps} at exactly one radius (single-point
    clusters), plus for x above the radius the density

        e^{-lam eps} p0'(x - eps) - p0'(x),

    the derivative of the renewal CDF (cluster_length_cdf), with p0' from
    the delay equation on the method-of-steps profile. The atom is forced
    by the jump of p0 from 0 to 1 at argument zero; without it the density
    alone would integrate to 1 - e^{-lam*eps}. Raises CapacityError past
    the kernel's budget, as the CDF does, and ValueError at nan.
    """
    lam, eps = params.intensity, params.radius
    damp = math.exp(-lam * eps)

    def density(x):
        import numpy as np

        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if np.isnan(xs).any():
            raise ValueError("the density's argument is nan")
        here, before = count_prob_deriv_grid(lam, eps, np.stack([xs, xs - eps]), 0)
        out = np.where(xs > eps, np.maximum(damp * before - here, 0.0), 0.0)
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
    or below it, with p_{n-1} read off the model's step table with no tail
    stop (_pn.count_prob_at), so it stays relative far into the tail and
    needs no numpy. Reads 0 at infinity. Raises CapacityError, before
    building, for finite x past STEP_TABLE_BUDGET / n steps of the radius.
    """
    if n < 1:
        raise ValueError(f"cycle count must be positive, got {n}")
    if math.isnan(x):
        raise ValueError("the density's argument is nan")
    lam, eps = params.intensity, params.radius
    if x <= eps or x == math.inf:
        return 0.0
    return lam * math.exp(-lam * eps) * count_prob_at(lam, eps, x - eps, n - 1)


def cluster_length_cdf(params: ModelParams) -> Callable:
    """CDF of the cluster span as a vectorized callable, with the atom's jump
    at the radius: by the renewal identity, 1 - p0(x) + e^{-lam eps} p0(x - eps)
    for x >= eps and 0 below. Raises CapacityError past the kernel's budget,
    and ValueError at nan.
    """
    lam, eps = params.intensity, params.radius
    damp = math.exp(-lam * eps)

    def values(xs):
        import numpy as np

        here, before = count_prob_steps(lam, eps, np.stack([xs, xs - eps]), 0)[0]
        return np.where(xs >= eps, 1.0 - here + damp * before, 0.0)

    return _cdf(values)


def cycle_sum_cdf(params: ModelParams, n: int) -> Callable:
    """CDF of the sum of n cycles as a vectorized callable (no atom): the n-th
    cycle ends by x when [0, x] holds n complete clusters, so it is
    1 - sum_{k<n} p_k(x). Raises CapacityError past the kernel's budget,
    and ValueError at nan.
    """
    if n < 1:
        raise ValueError(f"cycle count must be positive, got {n}")
    lam, eps = params.intensity, params.radius
    return _cdf(lambda xs: 1.0 - count_prob_steps(lam, eps, xs, n - 1).sum(axis=0))


def _cdf(values: Callable[[np.ndarray], np.ndarray]) -> Callable:
    def cdf(x):
        import numpy as np

        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if np.isnan(xs).any():
            raise ValueError("the CDF's argument is nan")
        out = np.clip(values(xs), 0.0, 1.0)
        return float(out[0]) if scalar else out

    return cdf

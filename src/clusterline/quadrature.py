"""Adaptive panel quadrature, which backs laplace-check, and PanelCdf.

One Gauss-Legendre rule integrates arrays of panels, calling the integrand
on at most 4096 abscissae at a time. The adaptive scheme bisects level by
level: one rule call gives every open panel's whole and both halves, whose
difference is a Richardson-style error estimate. Callers pass breakpoints at
their integrands' derivative kinks (lattice multiples of the radius) so every
panel stays smooth. PanelCdf is kept for the tests' quadrature oracles.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from .errors import QuadratureError

_GL_ORDER = 15
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
_PANELS_PER_CALL = 4096 // _GL_ORDER  # at most 4096 integrand abscissae per call
_MAX_DEPTH = 30

DEFAULT_MAX_REFINEMENTS = 4000


def _panel_integral(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, float]:
    """Gauss-Legendre integrals of f over the panels [lo[i], hi[i]], in
    blocks of _PANELS_PER_CALL; returns them and max|f| over every node."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    out = np.empty(half.shape)
    sup_f = 0.0
    for j in range(0, half.size, _PANELS_PER_CALL):
        block = slice(j, j + _PANELS_PER_CALL)
        nodes = mid[block, None] + half[block, None] * _GL_NODES
        ys = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        out[block] = half[block] * (ys @ _GL_WEIGHTS)
        sup_f = max(sup_f, float(np.max(np.abs(ys))))
    return out, sup_f


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    max_refinements: int = DEFAULT_MAX_REFINEMENTS,
    breakpoints: Iterable[float] = (),
) -> tuple[float, float, float]:
    """Adaptively integrate a vectorized integrand over [a, b].

    Args:
        f: Integrand accepting an ndarray of abscissae.
        a, b: Integration limits, a <= b.
        abs_tol: Absolute tolerance on the total integral.
        max_refinements: Budget of panel bisections before giving up.
        breakpoints: Interior points where f has kinks; panels never
            straddle them.

    Returns:
        (value, error_estimate, sup_abs_f) where sup_abs_f is the largest
        |f| seen at any evaluation node.

    Raises:
        QuadratureError: If the refinement budget is exhausted before the
            estimated error falls under abs_tol.
    """
    if b <= a:
        return 0.0, 0.0, 0.0
    cuts = sorted({float(t) for t in breakpoints if a < t < b})
    lo, hi = np.array([a, *cuts], dtype=float), np.array([*cuts, b], dtype=float)
    value = err = sup_f = 0.0
    refinements = 0
    for depth in range(_MAX_DEPTH + 1):
        mid = 0.5 * (lo + hi)
        ints, sup = _panel_integral(f, np.stack([lo, lo, mid], 1).ravel(), np.stack([hi, mid, hi], 1).ravel())
        coarse, left, right = ints.reshape(-1, 3).T
        sup_f = max(sup_f, sup)
        fine = left + right
        panel_err = np.abs(fine - coarse)
        # the depth cap stops refinement from chasing floating-point noise
        # of the integrand; a capped panel contributes O(noise * width),
        # which stays inside the reported error estimate
        split = ~(panel_err <= np.maximum(abs_tol * (hi - lo) / (b - a), 1e-300)) & (depth < _MAX_DEPTH)
        value += float(np.sum(fine[~split]))
        err += float(np.sum(panel_err[~split]))
        refinements += int(np.count_nonzero(split))
        if refinements > max_refinements:
            worst = float(np.max(panel_err[split]))
            raise QuadratureError(
                f"refinement budget {max_refinements} exhausted; worst open panel error {worst:.3e}",
                last_estimate=worst,
            )
        lo, hi = np.stack([lo[split], mid[split]], 1).ravel(), np.stack([mid[split], hi[split]], 1).ravel()
        if not lo.size:
            break
    return value, err, sup_f


class PanelCdf:
    """Cumulative integral of a density, evaluable at arbitrary points.

    Precomputes Gauss-Legendre integrals over a fixed panel grid (refined
    between the supplied breakpoints), then resolves a query x as the sum
    of full panels below x plus a partial-panel quadrature. Queries accept
    scalars or arrays; accuracy is at the level of the panel rule, which is
    near machine precision for piecewise-smooth densities.
    """

    def __init__(
        self,
        density: Callable[[np.ndarray], np.ndarray],
        lower: float,
        upper: float,
        breakpoints: Iterable[float] = (),
        panels_per_segment: int = 8,
    ):
        if upper <= lower:
            raise ValueError(f"empty support [{lower}, {upper}]")
        self.density = density
        self.lower = lower
        self.upper = upper
        cuts = sorted({float(t) for t in breakpoints if lower < t < upper})
        segs = [lower, *cuts, upper]
        knots: list[float] = [lower]
        for j in range(len(segs) - 1):
            knots.extend(
                np.linspace(segs[j], segs[j + 1], panels_per_segment + 1)[1:].tolist()
            )
        self.knots = np.asarray(knots)
        panel_ints, _ = _panel_integral(density, self.knots[:-1], self.knots[1:])
        self._cum = np.concatenate([[0.0], np.cumsum(panel_ints)])

    @property
    def total(self) -> float:
        return float(self._cum[-1])

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        xs_clip = np.clip(xs, self.lower, self.upper)
        idx = np.clip(np.searchsorted(self.knots, xs_clip, side="right") - 1, 0, len(self.knots) - 2)
        out = self._cum[idx] + _panel_integral(self.density, self.knots[idx], xs_clip)[0]
        out[xs < self.lower] = 0.0
        out[xs > self.upper] = self.total
        return float(out[0]) if scalar else out

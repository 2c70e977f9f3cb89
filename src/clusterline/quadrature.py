"""Adaptive panel quadrature, which backs laplace-check, and PanelCdf.

One Gauss-Legendre rule integrates arrays of panels, calling the integrand
on at most 4096 abscissae at a time. The adaptive scheme bisects level by
level: each rule call gives a block of open panels' wholes and both halves,
whose difference is a Richardson-style error estimate. An integrand may
return rows of values, one function per row: every row is integrated on the
same panels, and a panel splits while any row misses its share of that
row's tolerance. Callers pass breakpoints at their integrands' derivative
kinks (lattice multiples of the radius) so every panel stays smooth.
PanelCdf is kept for the tests' quadrature oracles.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from .errors import QuadratureError

_GL_ORDER = 15
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
_PANELS_PER_CALL = 4096 // _GL_ORDER  # at most 4096 integrand abscissae per call
_SPLITS_PER_CALL = _PANELS_PER_CALL // 3  # a panel and both its halves
_MAX_DEPTH = 30

DEFAULT_MAX_REFINEMENTS = 4000


def _panel_integral(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre integrals of f over the panels [lo[i], hi[i]], in
    blocks of _PANELS_PER_CALL; returns them, shape (*rows, panels) for an
    integrand with values of shape (*rows, points), and max|f| over every
    node, per row."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    out, sup_f = np.empty(half.shape), 0.0
    for j in range(0, half.size, _PANELS_PER_CALL):
        block = slice(j, j + _PANELS_PER_CALL)
        nodes = mid[block, None] + half[block, None] * _GL_NODES
        ys = np.asarray(f(nodes.ravel()), dtype=float)
        ys = ys.reshape(ys.shape[:-1] + nodes.shape)
        if j == 0:
            out = np.empty(ys.shape[:-2] + half.shape)
        out[..., block] = half[block] * (ys @ _GL_WEIGHTS)
        sup_f = np.maximum(sup_f, np.max(np.abs(ys), axis=(-2, -1)))
    return out, sup_f


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float | np.ndarray = 1e-10,
    max_refinements: int = DEFAULT_MAX_REFINEMENTS,
    breakpoints: Iterable[float] = (),
) -> tuple:
    """Adaptively integrate a vectorized integrand over [a, b].

    Args:
        f: Integrand accepting an ndarray of N abscissae and returning N
            values, or an array of shape (*rows, N) to integrate several
            functions on one set of panels.
        a, b: Integration limits, a <= b.
        abs_tol: Absolute tolerance on the total integral, or one per row.
        max_refinements: Budget of panel bisections before giving up.
        breakpoints: Interior points where f has kinks; panels never
            straddle them.

    Returns:
        (value, error_estimate, sup_abs_f) where sup_abs_f is the largest
        |f| seen at any evaluation node: floats, or arrays of shape rows.
        A panel is split while any row's error exceeds that row's share of
        its tolerance.

    Raises:
        QuadratureError: If the refinement budget is exhausted before the
            estimated error falls under abs_tol.
    """
    if b <= a:
        return 0.0, 0.0, 0.0
    cuts = sorted({float(t) for t in breakpoints if a < t < b})
    lo, hi = np.array([a, *cuts], dtype=float), np.array([*cuts, b], dtype=float)
    tol = np.asarray(abs_tol, dtype=float)[..., None]  # per row, against each panel
    value = err = sup_f = 0.0
    refinements = 0
    for depth in range(_MAX_DEPTH + 1):
        opened, worst = [], 0.0  # the (lo, mid, hi) of every panel split at this depth
        for j in range(0, lo.size, _SPLITS_PER_CALL):  # one rule call per block of panels
            lo_j, hi_j = lo[j : j + _SPLITS_PER_CALL], hi[j : j + _SPLITS_PER_CALL]
            mid = 0.5 * (lo_j + hi_j)
            ints, sup = _panel_integral(f, np.stack([lo_j, lo_j, mid], 1).ravel(), np.stack([hi_j, mid, hi_j], 1).ravel())
            ints = ints.reshape(ints.shape[:-1] + (-1, 3))
            coarse, fine = ints[..., 0], ints[..., 1] + ints[..., 2]
            sup_f = np.maximum(sup_f, sup)
            panel_err = np.abs(fine - coarse)
            # the depth cap stops refinement from chasing floating-point noise
            # of the integrand; a capped panel contributes O(noise * width),
            # which stays inside the reported error estimate
            miss = ~(panel_err <= np.maximum(tol * (hi_j - lo_j) / (b - a), 1e-300))
            split = miss.reshape(-1, lo_j.size).any(0) & (depth < _MAX_DEPTH)
            value = value + np.sum(fine[..., ~split], axis=-1)
            err = err + np.sum(panel_err[..., ~split], axis=-1)
            if split.any():
                worst = max(worst, float(np.max(panel_err[..., split])))
                opened.append(np.stack([lo_j[split], mid[split], hi_j[split]], 1))
        if not opened:
            break
        opened = np.concatenate(opened)
        refinements += len(opened)
        if refinements > max_refinements:
            raise QuadratureError(
                f"refinement budget {max_refinements} exhausted; worst open panel error {worst:.3e}",
                last_estimate=worst,
            )
        lo, hi = opened[:, :2].ravel(), opened[:, 1:].ravel()
    if np.ndim(value) == 0:
        return float(value), float(err), float(sup_f)
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

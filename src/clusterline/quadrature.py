"""Adaptive panel quadrature, which backs laplace-check, and PanelCdf.

Bisection over panels with a fixed-order Gauss-Legendre rule per panel and a
Richardson-style error estimate (whole panel against its two halves). Callers
pass breakpoints at their integrands' derivative kinks (lattice multiples of
the radius) so every panel stays smooth. The span and cycle-sum CDFs are sums
of p_n (cluster_laws); PanelCdf is kept for the tests' quadrature oracles.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from .errors import QuadratureError

_GL_ORDER = 15
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)

DEFAULT_MAX_REFINEMENTS = 4000


def _panel_integral(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    """Gauss-Legendre integral of f over [a, b]; returns (value, max|f|)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid + half * _GL_NODES
    ys = np.asarray(f(xs), dtype=float)
    return half * float(_GL_WEIGHTS @ ys), float(np.max(np.abs(ys)))


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
    knots = [a, *cuts, b]
    total_len = b - a

    value = 0.0
    err = 0.0
    sup_f = 0.0
    refinements = 0
    # panels still to be accepted, with their bisection depth
    stack: list[tuple[float, float, int]] = [
        (knots[j], knots[j + 1], 0) for j in range(len(knots) - 1)
    ]
    max_depth = 30
    while stack:
        lo, hi, depth = stack.pop()
        coarse, m1 = _panel_integral(f, lo, hi)
        mid = 0.5 * (lo + hi)
        left, m2 = _panel_integral(f, lo, mid)
        right, m3 = _panel_integral(f, mid, hi)
        sup_f = max(sup_f, m1, m2, m3)
        fine = left + right
        panel_err = abs(fine - coarse)
        panel_tol = abs_tol * (hi - lo) / total_len
        # the depth cap stops refinement from chasing floating-point noise
        # of the integrand; a capped panel contributes O(noise * width),
        # which stays inside the reported error estimate
        if panel_err <= max(panel_tol, 1e-300) or depth >= max_depth:
            value += fine
            err += panel_err
            continue
        refinements += 1
        if refinements > max_refinements:
            raise QuadratureError(
                f"refinement budget {max_refinements} exhausted; "
                f"last panel error {panel_err:.3e} over [{lo}, {hi}]",
                last_estimate=panel_err,
            )
        stack.append((lo, mid, depth + 1))
        stack.append((mid, hi, depth + 1))
    return value, err, sup_f


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    max_refinements: int = DEFAULT_MAX_REFINEMENTS,
    breakpoints: Iterable[float] = (),
) -> float:
    """Convenience wrapper around integrate_adaptive returning the value."""
    value, _, _ = integrate_adaptive(
        f, a, b, abs_tol=abs_tol, max_refinements=max_refinements, breakpoints=breakpoints
    )
    return value


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
        half = 0.5 * np.diff(self.knots)
        mid = 0.5 * (self.knots[:-1] + self.knots[1:])
        nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        vals = np.asarray(density(nodes.ravel()), dtype=float).reshape(nodes.shape)
        panel_ints = half * (vals @ _GL_WEIGHTS)
        self._cum = np.concatenate([[0.0], np.cumsum(panel_ints)])

    @property
    def total(self) -> float:
        return float(self._cum[-1])

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        xs_clip = np.clip(xs, self.lower, self.upper)
        idx = np.clip(np.searchsorted(self.knots, xs_clip, side="right") - 1, 0, len(self.knots) - 2)
        lo = self.knots[idx]
        half = 0.5 * (xs_clip - lo)
        mid = lo + half
        nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        vals = np.asarray(self.density(nodes.ravel()), dtype=float).reshape(nodes.shape)
        partial = half * (vals @ _GL_WEIGHTS)
        out = self._cum[idx] + partial
        out[xs < self.lower] = 0.0
        out[xs > self.upper] = self.total
        return float(out[0]) if scalar else out

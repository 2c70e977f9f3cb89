"""Numerical forward Laplace transforms and the closed forms they validate.

Every closed-form transform in the model has a partner here: an adaptive
quadrature of e^{-s x} f(x) over a truncated range with an explicit tail
bound added to the error budget. No numerical inversion happens anywhere;
inversions exist in closed form and only the forward direction is checked,
because numerical inversion is ill-conditioned and unnecessary. The count
transforms are checked on the alternating-sum grid kernel, not on the
method-of-steps kernel the span and cycle-sum laws use, so the check stays
independent of them; for each s one quadrature integrates the rows
p_0..p_{n_max} together, each against its own tail bound, on the panels
every row needs. The closed forms are written in the paper's variable
c = lam e^{-(lam + s) eps}, which underflows instead of overflowing.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .cluster_laws import ModelParams
from .errors import QuadratureError
from .quadrature import integrate_adaptive
from .special_fn import polylog_neg


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the forward-transform quadrature.

    Attributes:
        abs_tol: Absolute tolerance on the integral.
        upper_cut: Truncation point of the half-line integral.
    """

    abs_tol: float = 1e-10
    upper_cut: float = 80.0

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if not self.upper_cut > 0.0:
            raise ValueError(f"upper_cut must be positive, got {self.upper_cut}")


def spec_for_count_transform(params: ModelParams, n: int, s: float) -> QuadratureSpec:
    """Truncation tuned to the n-count probability profile.

    The profile vanishes below n radii and the integrand decays at rate
    min(s, intensity), so (n+1) eps + 40 / min(s, lam) captures the mass
    far past any stated tolerance.

    Raises:
        ValueError: If s <= 0 or s is nan.
    """
    if not s > 0.0:
        raise ValueError(f"transform argument must be positive, got {s}")
    cut = (n + 1) * params.radius + 40.0 / min(s, params.intensity)
    return QuadratureSpec(abs_tol=1e-10, upper_cut=cut)


def numeric_laplace(
    f: Callable[[np.ndarray], np.ndarray],
    s: float,
    spec: QuadratureSpec,
    breakpoints: Iterable[float] = (),
) -> float | np.ndarray:
    """Forward Laplace transform of f at s by adaptive quadrature.

    Integrates e^{-s x} f(x) over [0, upper_cut], refining panels until
    the estimated error plus the analytic tail bound sup|f| e^{-s cut}/s
    fits the budget. Pass breakpoints where f has kinks (lattice points)
    so panels stay smooth. An f with values of shape (*rows, N) has every
    row transformed on one set of panels, each with its own tail bound.

    Args:
        f: Bounded vectorized function on [0, upper_cut].
        s: Transform argument, > 0.
        spec: Quadrature controls.
        breakpoints: Optional kink locations of f.

    Returns:
        The transform: a float, or an array of shape rows.

    Raises:
        ValueError: If s <= 0.
        QuadratureError: If the refinement budget is exhausted or the
            tail bound alone exceeds the tolerance.
    """
    if not s > 0.0:
        raise ValueError(f"transform argument must be positive, got {s}")

    # tail bound claims its share of the error budget first
    probe = np.linspace(0.0, spec.upper_cut, 513)
    sup_f = np.max(np.abs(np.asarray(f(probe), dtype=float)), axis=-1)
    tail = sup_f * math.exp(max(-s * spec.upper_cut, -745.0)) / s
    panel_budget = spec.abs_tol - tail
    if np.any(panel_budget <= 0.0):
        worst = float(np.max(tail))
        raise QuadratureError(
            f"tail bound {worst:.3e} alone exceeds tolerance {spec.abs_tol:.1e}; "
            "raise upper_cut",
            last_estimate=worst,
        )

    def integrand(xs):
        return np.exp(-s * xs) * np.asarray(f(xs), dtype=float)

    value, _, _ = integrate_adaptive(
        integrand,
        0.0,
        spec.upper_cut,
        abs_tol=panel_budget,
        breakpoints=breakpoints,
    )
    return value


def laplace_pmf_closed(params: ModelParams, n: int, s: float) -> float:
    """Closed-form transform (in the length variable) of the probability
    of exactly n complete clusters: c^n / (s + c)^{n+1} with the paper's
    c = lam e^{-(lam + s) eps}, which underflows to 0 instead of overflowing.

    The denominator exponent is n + 1; the quadrature grid in the tests is
    what pins that against the n-exponent variant.
    """
    if n < 0:
        raise ValueError(f"count must be non-negative, got {n}")
    if not s > 0.0:
        raise ValueError(f"transform argument must be positive, got {s}")
    c = params.intensity * math.exp(-(params.intensity + s) * params.radius)
    return c**n / (s + c) ** (n + 1)


def laplace_moment_closed(params: ModelParams, m: int, s: float) -> float:
    """Closed-form transform (in the length variable) of the m-th moment
    of the complete-cluster count: Li_{-m}(c / (s + c)) / (s + c) with
    c = lam e^{-(lam + s) eps}.
    """
    if m < 1:
        raise ValueError(f"moment order must be positive, got {m}")
    if not s > 0.0:
        raise ValueError(f"transform argument must be positive, got {s}")
    c = params.intensity * math.exp(-(params.intensity + s) * params.radius)
    return polylog_neg(m, c / (s + c)) / (s + c)


def count_transform_residuals(
    params: ModelParams,
    counts: Iterable[int],
    s_values: Iterable[float],
) -> list[dict]:
    """Closed form vs quadrature for the count-probability transforms.

    Returns one record per (n, s) pair, n-major, with keys n, s, closed,
    numeric, abs_err (|closed - numeric|) and tol (the abs_tol of the
    pair's QuadratureSpec, the accuracy the quadrature promises). For each
    s one quadrature transforms every requested count at once, on the
    rows p_0..p_{n_max} of the alternating-sum grid kernel and up to the
    largest count's cut, which is past every smaller count's. Residuals
    well below tol are rounding noise whose bits depend on the BLAS kernel
    numpy dispatches to, so platform-stable output should report
    abs_err <= tol rather than abs_err itself. Used by the CLI and the
    acceptance suite.
    """
    from ._pn import count_prob_grid

    lam, eps = params.intensity, params.radius
    counts, s_values = list(counts), list(s_values)
    rows = [{"n": n, "s": s, "closed": laplace_pmf_closed(params, n, s)} for n in counts for s in s_values]
    if not rows:
        return rows
    n_max = max(counts)
    for j, s in enumerate(s_values):
        spec = spec_for_count_transform(params, n_max, s)
        cuts = [k * eps for k in range(1, int(spec.upper_cut / eps) + 1)]

        def profile(xs):
            return np.clip(count_prob_grid(lam, eps, np.atleast_1d(xs), n_max)[counts], 0.0, 1.0)

        numeric = numeric_laplace(profile, s, spec, breakpoints=cuts)
        for row, value in zip(rows[j :: len(s_values)], numeric):  # the rows of this s, in count order
            row.update(numeric=float(value), abs_err=abs(row["closed"] - float(value)), tol=spec.abs_tol)
    return rows

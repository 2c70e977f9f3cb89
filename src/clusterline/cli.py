"""Batch command-line frontend.

Every subcommand emits one plot-ready document (CSV or JSON) and nothing
else on stdout; there is no interactive mode and no rendering. Numeric
fields are formatted to 9 significant digits so documents are byte-stable
across platforms. Exit status: 0 on success, 1 on computation errors,
2 on usage errors.

The analytic subcommands (pmf, incomplete, circle, moments, coverage,
density --law U and sweep) run on the pure-Python kernels and never import
numpy; density --law B, laplace-check, simulate and compare import their
numpy-backed modules inside their handlers, when they run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import __version__
from .cluster_laws import (
    SCENARIOS,
    ModelParams,
    cluster_length_cdf,
    cluster_length_law,
    cycle_sum_cdf,
    cycle_sum_density,
    mean_cluster_length,
)
from .component_counts import (
    DistributionTable,
    IntervalModel,
    coverage_prob,
    coverage_report,
    mean_complete,
    moment_complete,
    pmf_circle_table,
    pmf_complete_table,
    pmf_incomplete_table,
    var_complete,
)
from .errors import CapacityError

SCHEMA_VERSION = "1"
SCENARIO_NAMES = "|".join(name.replace("_", "-") for name in SCENARIOS)
GRID_MAX_POINTS = 100_000
# count tables by scenario (the pmf subcommand prints the complete one); the
# builders are looked up per call, so a traced run still sees them called
COUNT_TABLES = {
    "complete": lambda model: pmf_complete_table(model),
    "incomplete": lambda model: pmf_incomplete_table(model),
    "circle": lambda model: pmf_circle_table(model),
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _round9(value):
    if isinstance(value, float):
        return float(format(value, ".9g"))
    return value


def _emit(args, command: str, columns: list[str], rows: list[dict]) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        text = buf.getvalue()
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "columns": columns,
            "rows": [{c: _round9(row[c]) for c in columns} for row in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _model(args) -> IntervalModel:
    return IntervalModel(ModelParams(args.lam, args.epsilon), args.length)


def _parse_grid(text: str) -> list[float]:
    """Parse 'min:max:step' (endpoints inclusive within 1e-12 relative) or a float.

    Raises:
        ValueError: On a malformed grid or one of more than GRID_MAX_POINTS
            points (checked before any point is built).
    """
    if ":" not in text:
        return [float(text)]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be min:max:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if not (step > 0 and hi >= lo):
        raise ValueError(f"bad grid {text!r}")
    # the point count is floor(steps) + 1, at most the cap iff steps < cap;
    # the slack is relative, as the rounding of (hi - lo) / step grows with it
    steps = (hi - lo) / step * (1.0 + 1e-12)
    if not steps < GRID_MAX_POINTS:
        raise ValueError(f"grid {text!r} has more than {GRID_MAX_POINTS} points")
    return [lo + k * step for k in range(int(steps) + 1)]


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (anything else is a usage error)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _grid_points(text: str) -> int:
    """argparse type: an integer from 1 to GRID_MAX_POINTS (anything else is a usage error)."""
    value = _positive_int(text)
    if value > GRID_MAX_POINTS:
        raise argparse.ArgumentTypeError(f"must be at most {GRID_MAX_POINTS}, got {text!r}")
    return value


def _scenario(text: str) -> str:
    """argparse type: a scenario name, '-' accepted for '_' (anything else is a usage error)."""
    key = text.lower().replace("-", "_")
    if key not in SCENARIOS:
        raise argparse.ArgumentTypeError(f"must be one of {SCENARIO_NAMES}, got {text!r}")
    return key


def _count_list(text: str) -> list[int]:
    """argparse type: a comma list of integers >= 0 (anything else is a usage error)."""
    try:
        counts = [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        counts = [-1]
    if any(n < 0 for n in counts):
        raise argparse.ArgumentTypeError(f"must be a comma list of non-negative integers, got {text!r}")
    return counts


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """np.linspace(lo, hi, count).tolist() bit for bit (numpy's path for a
    step that underflows to 0 aside), without importing numpy."""
    if count == 1:
        return [0.0 * (hi - lo) + lo]  # nan where hi - lo is not finite, as numpy gives
    step = (hi - lo) / (count - 1)
    return [k * step + lo for k in range(count - 1)] + [hi]


def _cmd_table(args, command: str, scenario: str) -> None:
    table = COUNT_TABLES[scenario](_model(args))
    rows = [{"n": n, "probability": p} for n, p in enumerate(table.probs)]
    _emit(args, command, ["n", "probability"], rows)


def _cmd_moments(args) -> None:
    model = _model(args)
    rows = [{"m": m, "moment": moment_complete(model, m)} for m in range(1, args.m + 1)]
    _emit(args, "moments", ["m", "moment"], rows)


def _cmd_coverage(args) -> None:
    report = coverage_report(_model(args))
    closed = report.closed_form
    rows = [
        {
            "coverage": report.quadrature,
            # the experimental series can overflow; an empty field, as for ks in compare
            "closed_form": closed if math.isfinite(closed) else "",
            "mismatch": int(report.mismatch),
        }
    ]
    _emit(args, "coverage", ["coverage", "closed_form", "mismatch"], rows)


def _cmd_density(args) -> None:
    params = ModelParams(args.lam, args.epsilon)
    mean_span = mean_cluster_length(params)
    if args.law == "B":  # to ten mean spans
        x_max = params.radius + 10.0 * mean_span
    else:  # argparse allows only B and U; to ten mean n-cycle sums
        x_max = params.radius + 10.0 * args.n * (mean_span + 1.0 / params.intensity)
    if x_max == math.inf:  # e^{lam eps} or the grid's end overflows
        lam_eps = params.intensity * params.radius
        raise CapacityError(f"the density grid at lambda*epsilon = {lam_eps:g} ends past STEP_TABLE_BUDGET steps")
    xs = _linspace(params.radius, x_max, args.points)
    if args.law == "B":
        mixed = cluster_length_law(params)
        rows = [{"kind": "atom", "x": mixed.atom_location, "value": mixed.atom_mass}]
        rows.extend({"kind": "density", "x": x, "value": float(d)} for x, d in zip(xs, mixed.density(xs)))
    else:
        rows = [{"kind": "density", "x": x, "value": cycle_sum_density(params, args.n, x)} for x in xs]
    _emit(args, "density", ["kind", "x", "value"], rows)


def _cmd_laplace_check(args) -> None:
    from .laplace_check import count_transform_residuals

    params = ModelParams(args.lam, args.epsilon)
    rows = count_transform_residuals(params, range(4), (0.5, 1.0, 2.0))
    # the residual itself is rounding noise below tol and its bits vary with
    # the BLAS kernel, so only its comparison against tol is printed
    for row in rows:
        row["verdict"] = "pass" if row["abs_err"] <= row["tol"] else "fail"
    _emit(args, "laplace-check", ["n", "s", "closed", "numeric", "tol", "verdict"], rows)


def _sample(args):
    """The seeded estimate simulate and compare open with: (params, scenario, order, result)."""
    from .mc_engine import SampleConfig, estimate

    params = ModelParams(args.lam, args.epsilon)
    config = SampleConfig(seed=args.seed, replications=args.samples)
    order = args.n or 1
    return params, args.scenario, order, estimate(params, args.scenario, args.length, config, cycle_order=order)


def _cmd_simulate(args) -> None:
    import numpy as np

    _, _, _, result = _sample(args)
    if isinstance(result, np.ndarray):
        rows = [{"index": i, "value": float(v)} for i, v in enumerate(result)]
        _emit(args, "simulate", ["index", "value"], rows)
        return
    rows = [
        {
            "outcome": n,
            "count": result.counts[n],
            "estimate": result.estimate(n),
            "std_error": result.std_error(n),
        }
        for n in result.outcomes()
    ]
    _emit(args, "simulate", ["outcome", "count", "estimate", "std_error"], rows)


def _cmd_compare(args) -> None:
    from .stats_compare import compare_continuous, compare_pmf

    params, key, order, result = _sample(args)
    model = IntervalModel(params, args.length)
    if key == "b_law":
        report = compare_continuous(result, cluster_length_cdf(params))
    elif key == "u_law":
        report = compare_continuous(result, cycle_sum_cdf(params, order))
    elif key in COUNT_TABLES:
        report = compare_pmf(result, COUNT_TABLES[key](model))
    else:  # coverage
        cov = coverage_prob(model)
        report = compare_pmf(result, DistributionTable(support_max=1, probs=(1.0 - cov, cov), tail_mass=0.0))

    columns = [
        "outcome",
        "analytic",
        "empirical",
        "z",
        "max_abs_z",
        "chi_square",
        "dof",
        "ks",
        "verdict",
    ]
    summary = {
        "max_abs_z": report.max_abs_z,
        "chi_square": report.chi_square,
        "dof": report.dof,
        "ks": "" if report.ks_statistic is None else report.ks_statistic,
        "verdict": report.verdict,
    }
    if report.per_outcome:
        rows = [
            {"outcome": s.outcome, "analytic": s.analytic, "empirical": s.empirical, "z": s.z, **summary}
            for s in report.per_outcome
        ]
    else:
        rows = [{"outcome": "", "analytic": "", "empirical": "", "z": "", **summary}]
    _emit(args, "compare", columns, rows)


def _cmd_sweep(args) -> None:
    grid = _parse_grid(args.lam_grid)
    eps = args.epsilon
    length = args.length
    if args.curve == "pmf":
        ns = args.n or [0, 1, 2, 3]
        columns = ["lambda"] + [f"p{n}" for n in ns]
        rows = []
        for lam in grid:
            model = IntervalModel(ModelParams(lam, eps), length)
            table = pmf_complete_table(model)
            row = {"lambda": lam}
            for n in ns:
                row[f"p{n}"] = table.probs[n] if n <= table.support_max else 0.0
            rows.append(row)
    else:
        fn = mean_complete if args.curve == "mean" else var_complete
        columns = ["lambda", "value"]
        rows = [
            {"lambda": lam, "value": fn(IntervalModel(ModelParams(lam, eps), length))}
            for lam in grid
        ]
    _emit(args, "sweep", columns, rows)


def _add_common(sub, *, length=False, fmt=True):
    sub.add_argument("--lambda", dest="lam", type=float, required=True, help="Poisson intensity (points per unit length)")
    sub.add_argument("--epsilon", type=float, required=True, help="connection radius (length units)")
    if length:
        sub.add_argument("--length", type=float, required=True, help="domain length / circumference")
    if fmt:
        sub.add_argument("--format", choices=("csv", "json"), default="csv", help="output document format")
        sub.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_sampling(sub, samples_help: str) -> None:
    sub.add_argument("--scenario", type=_scenario, required=True, help=SCENARIO_NAMES)
    sub.add_argument("--samples", type=_positive_int, default=100_000, help=samples_help)
    sub.add_argument("--seed", type=int, default=0, help="run seed")
    sub.add_argument("--n", type=_positive_int, default=None, help="cycle count for u-law")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterline",
        description=(
            "Closed-form cluster statistics of one-dimensional Poisson deployments, "
            "with Monte Carlo validation."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser(
        "pmf",
        help="distribution of the complete-cluster count",
        description="Complete-cluster count distribution. Columns: n, probability.",
    )
    _add_common(sp, length=True)
    sp.set_defaults(handler=lambda a: _cmd_table(a, "pmf", "complete"))

    sp = subs.add_parser(
        "incomplete",
        help="distribution of the incomplete-cluster count",
        description="Incomplete-cluster count distribution. Columns: n, probability.",
    )
    _add_common(sp, length=True)
    sp.set_defaults(handler=lambda a: _cmd_table(a, "incomplete", "incomplete"))

    sp = subs.add_parser(
        "circle",
        help="distribution of the cluster count on a circle",
        description="Circle cluster-count distribution. Columns: n, probability.",
    )
    _add_common(sp, length=True)
    sp.set_defaults(handler=lambda a: _cmd_table(a, "circle", "circle"))

    sp = subs.add_parser(
        "moments",
        help="raw moments of the complete-cluster count",
        description="First --m raw moments. Columns: m, moment.",
    )
    _add_common(sp, length=True)
    sp.add_argument("--m", type=_positive_int, required=True, help="highest moment order")
    sp.set_defaults(handler=_cmd_moments)

    sp = subs.add_parser(
        "coverage",
        help="full-coverage probability",
        description=(
            "Full-coverage probability: authoritative renewal-identity value next to the "
            "experimental closed-form series. Columns: coverage, closed_form, mismatch "
            "(closed_form is empty when the series is not finite)."
        ),
    )
    _add_common(sp, length=True)
    sp.set_defaults(handler=_cmd_coverage)

    sp = subs.add_parser(
        "density",
        help="density grid of the span law (B) or cycle-sum law (U)",
        description=(
            "Sampled density grid; for --law B the first row is the atom at the "
            "radius. Columns: kind, x, value."
        ),
    )
    _add_common(sp)
    sp.add_argument("--law", choices=("B", "U"), required=True, help="which law to sample")
    sp.add_argument("--n", type=_positive_int, default="1", help="cycle count for --law U")
    sp.add_argument("--points", type=_grid_points, default=200, help="grid size (positive integer)")
    sp.set_defaults(handler=_cmd_density)

    sp = subs.add_parser(
        "laplace-check",
        help="closed-form vs quadrature transforms, judged against the quadrature tolerance",
        description=(
            "Count-probability transforms, closed form against adaptive quadrature "
            "for n = 0..3 and s in {0.5, 1, 2}. Columns: n, s, closed, numeric, tol, "
            "verdict. tol is the absolute tolerance the quadrature targets for the "
            "row; verdict is pass iff |closed - numeric| <= tol. The residual itself "
            "is not printed: below tol it is rounding noise that varies with the "
            "BLAS build."
        ),
    )
    _add_common(sp)
    sp.set_defaults(handler=_cmd_laplace_check)

    sp = subs.add_parser(
        "simulate",
        help="run replications of one scenario",
        description=(
            "Seeded simulation. Count scenarios emit columns outcome, count, "
            "estimate, std_error; b-law/u-law emit the sorted sample as index, value."
        ),
    )
    _add_common(sp, length=True)
    _add_sampling(sp, "replication count; b-law/u-law print one row per sample")
    sp.set_defaults(handler=_cmd_simulate)

    sp = subs.add_parser(
        "compare",
        help="simulate and score against the analytic law",
        description=(
            "Simulation scored against the analytic law. Columns: outcome, analytic, "
            "empirical, z, max_abs_z, chi_square, dof, ks, verdict (summary fields "
            "repeat on every row; continuous scenarios emit one summary row)."
        ),
    )
    _add_common(sp, length=True)
    _add_sampling(sp, "replication count")
    sp.set_defaults(handler=_cmd_compare)

    sp = subs.add_parser(
        "sweep",
        help="curve of mean/var/pmf against intensity (plot-ready figure data)",
        description=(
            "Intensity sweep. Columns: lambda, value for --curve mean/var; "
            "lambda, p<n>... for --curve pmf."
        ),
    )
    sp.add_argument("--curve", choices=("mean", "var", "pmf"), required=True)
    grid_help = f"intensity grid min:max:step (inclusive, at most {GRID_MAX_POINTS} points)"
    sp.add_argument("--lambda", dest="lam_grid", required=True, help=grid_help)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--length", type=float, required=True)
    sp.add_argument("--n", type=_count_list, default=None, help="comma list of counts for --curve pmf (default 0,1,2,3)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"clusterline: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer metrics from a traced run, and the baseline cross-check.

Each metric is built from the spans of named functions; a metric whose
functions were not found at this commit is left out.
"""

from __future__ import annotations

import statistics

from tracer import CDF_BUILDERS, CDF_EVAL

MC_CLASSES = (
    "short_complete",
    "short_incomplete",
    "short_circle",
    "short_coverage",
    "short_b_law",
    "short_u_law",
    "par2_complete",
    "long_complete",
    "long_incomplete",
    "long_b_law",
    "long_u_law",
)
JOB_NAMES = frozenset(f"job:{cls}" for cls in MC_CLASSES)
CLI_SUBCOMMANDS = (
    "pmf",
    "incomplete",
    "circle",
    "moments",
    "coverage",
    "density",
    "laplace-check",
    "simulate",
    "compare",
    "sweep",
)

PN_GRID = ("_pn.count_prob_grid",)
PN_DERIV = ("_pn.count_prob_deriv", "_pn.count_prob_deriv_grid")
SPECIAL = ("special_fn.stirling_row", "special_fn.stirling2", "special_fn.polylog_neg", "special_fn.partial_exp_sum")
PMF = ("component_counts.pmf_complete", "component_counts.pmf_incomplete", "component_counts.pmf_circle")
TABLES = (
    "component_counts.pmf_complete_table",
    "component_counts.pmf_incomplete_table",
    "component_counts.pmf_circle_table",
)
MP = ("_pn.count_prob_mp", "component_counts._incomplete_mp", "component_counts._circle_mp")
COVERAGE = ("component_counts.coverage_prob", "component_counts.coverage_prob_closed", "component_counts.coverage_report")
INTEGRATE = ("quadrature.integrate_adaptive", "quadrature._panel_integral")
STATS = ("stats_compare.compare_pmf", "stats_compare.compare_continuous")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats, installed, untraced, cli_rows, precision_warnings) -> dict:
    """{metric: (value, unit)} for every layer metric whose functions exist."""
    out: dict = {}

    def have(names):
        return any(n in installed for n in names)

    def calls(names):
        return sum(stats.calls[n] for n in names)

    def self_s(names):
        return sum(stats.self_time[n] for n in names)

    def incl(names):
        return sum(stats.incl[n] for n in names)

    def group(prefix, names, extra=()):
        if have(names):
            out[f"{prefix}.calls"] = (calls(names), "count")
            out[f"{prefix}.self_s"] = (self_s(names), "s")
            for key, value, unit in extra:
                out[f"{prefix}.{key}"] = (value, unit)

    group("_pn.count_prob", ("_pn.count_prob",))
    group("_pn.count_prob_mp", ("_pn.count_prob_mp",))
    group("_pn.deriv", PN_DERIV)
    group("_pn.grid", PN_GRID, [("points", sum(stats.tag_sum[n] for n in PN_GRID), "count")])
    group("special_fn", SPECIAL)

    cc_names = [n for n in installed if n.startswith("component_counts.") and n not in COVERAGE]
    if have(TABLES) and have(PMF):
        builds = calls(TABLES)
        pmf_spans = [i for i, s in enumerate(stats.spans) if s[0] in PMF]
        in_tables = sum(1 for i in pmf_spans if stats.ancestor(i, TABLES) >= 0)
        escalated = set()
        for i, s in enumerate(stats.spans):
            if s[0] in MP:
                owner = stats.ancestor(i, PMF)
                if owner >= 0:
                    escalated.add(owner)
        out["component_counts.table_builds"] = (builds, "count")
        out["component_counts.pmf_evals"] = (len(pmf_spans), "count")
        out["component_counts.pmf_evals_per_table"] = (_ratio(in_tables, builds), "ratio")
        out["component_counts.self_s"] = (self_s(cc_names), "s")
        out["component_counts.escalation_ratio"] = (_ratio(len(escalated), len(pmf_spans)), "ratio")
        out["component_counts.precision_warnings"] = (precision_warnings, "count")
    if have(MP):
        for dps in (30, 60, 120):
            passes = sum(1 for s in stats.spans if s[0] in MP and int(s[4]) == dps)
            out[f"component_counts.mp_passes_dps{dps}"] = (passes, "count")
    group("component_counts.coverage", ("component_counts.coverage_prob",))

    if have(INTEGRATE):
        out["quadrature.integrate.calls"] = (calls(INTEGRATE[:1]), "count")
        out["quadrature.integrate.self_s"] = (self_s(INTEGRATE), "s")
        out["quadrature.integrand_evals"] = (calls(INTEGRATE[1:]), "count")
    if have(("quadrature.PanelCdf.__init__",)):
        out["quadrature.panelcdf.builds"] = (calls(("quadrature.PanelCdf.__init__",)), "count")
        out["quadrature.panelcdf.build_s"] = (incl(("quadrature.PanelCdf.__init__",)), "s")
        out["quadrature.panelcdf.queries"] = (calls(("quadrature.PanelCdf.__call__",)), "count")
        out["quadrature.panelcdf.query_s"] = (incl(("quadrature.PanelCdf.__call__",)), "s")

    if have(CDF_BUILDERS):
        builds = calls(CDF_BUILDERS)
        panels = sum(
            1
            for i, s in enumerate(stats.spans)
            if s[0] == "quadrature.PanelCdf.__init__" and stats.ancestor(i, CDF_BUILDERS) >= 0
        )
        cl_names = [n for n in installed if n.startswith("cluster_laws.")] + [CDF_EVAL]
        out["cluster_laws.cdf_builds"] = (builds, "count")
        out["cluster_laws.cdf_build_s"] = (incl(CDF_BUILDERS), "s")
        out["cluster_laws.cdf_eval_s"] = (incl((CDF_EVAL,)), "s")
        out["cluster_laws.self_s"] = (self_s(cl_names), "s")
        out["cluster_laws.panelcdf_per_cdf"] = (_ratio(panels, builds), "ratio")

    lc_names = [n for n in installed if n.startswith("laplace_check.")]
    if lc_names:
        out["laplace_check.rows"] = (stats.tag_sum["laplace_check.count_transform_residuals"], "count")
        out["laplace_check.self_s"] = (self_s(lc_names), "s")

    if have(("mc_engine.estimate",)):
        estimate_s = incl(("mc_engine.estimate",))
        reset_s = incl(("mc_engine._RngPool.reset",))
        out["mc_engine.reps"] = (stats.tag_sum["mc_engine.estimate"], "count")
        out["mc_engine.estimate_s"] = (estimate_s, "s")
        out["mc_engine.rng_reset_s"] = (reset_s, "s")
        out["mc_engine.walk_s"] = (estimate_s - reset_s, "s")
        mc = [r for r in untraced if r["reps"] and r["ok"]]
        if mc:
            out["mc_engine.reps_per_s"] = (sum(r["reps"] for r in mc) / sum(r["est_s"] for r in mc), "1/s")
        for cls in MC_CLASSES:
            rows = [r for r in mc if r["cls"] == cls]
            if rows:
                us = 1e6 * sum(r["est_s"] for r in rows) / sum(r["reps"] for r in rows)
                out[f"mc_engine.us_per_rep.{cls}"] = (us, "us")

    if have(STATS):
        probe = sum(
            s[2] - s[1]
            for i, s in enumerate(stats.spans)
            if s[0] == CDF_EVAL and stats.ancestor(i, ("stats_compare.compare_continuous",)) >= 0
        )
        group("stats_compare", STATS, [("cdf_probe_s", probe, "s")])

    if have(("cli.main",)) and cli_rows:
        out["cli.main_s"] = (incl(("cli.main",)), "s")
        out["cli.emit_s"] = (incl(("cli._emit",)), "s")
        out["cli.bytes_out"] = (sum(c["bytes"] for c in cli_rows), "B")
        out["cli.spawn_overhead_ms"] = (1e3 * statistics.median(c["spawn_s"] - c["plain_s"] for c in cli_rows), "ms")
    for sub in CLI_SUBCOMMANDS:
        walls = [r["s"] for r in untraced if r["argv"] and r["argv"][0] == sub and r["ok"]]
        if walls:
            out[f"cli.{sub}.wall_ms"] = (1e3 * statistics.median(walls), "ms")
    return out


def crosscheck(own, stats) -> dict:
    """The ROADMAP baseline figures this workload's untraced passes give."""
    def median_ms(pred):
        times = [r["s"] for r in own if r["ok"] and pred(r)]
        return 1e3 * statistics.median(times) if times else None

    out = {}
    for cls in MC_CLASSES:
        rows = [r for r in own if r["cls"] == cls and r["ok"]]
        if rows:
            out[f"mc_us_per_rep.{cls}"] = 1e6 * sum(r["est_s"] for r in rows) / sum(r["reps"] for r in rows)
    # share of estimate time spent in _RngPool.reset, per traced job class
    estimate: dict = {}
    reset: dict = {}
    for i, s in enumerate(stats.spans):
        target = estimate if s[0] == "mc_engine.estimate" else reset if s[0] == "mc_engine._RngPool.reset" else None
        if target is not None:
            job = stats.ancestor(i, JOB_NAMES)
            if job >= 0:
                name = stats.spans[job][0]
                target[name] = target.get(name, 0.0) + s[2] - s[1]
    for cls in MC_CLASSES:
        # resets in pool threads have no parent span, so parallel classes drop out
        if estimate.get(f"job:{cls}") and reset.get(f"job:{cls}"):
            out[f"mc_reset_share.{cls}"] = reset[f"job:{cls}"] / estimate[f"job:{cls}"]
    # span-CDF builds of the traced laws pass, by band
    for band in ("le1", "le4"):
        job = f"job:laws_{band}"
        builds = [
            1e3 * (s[2] - s[1])
            for i, s in enumerate(stats.spans)
            if s[0] == "cluster_laws.cluster_length_cdf" and stats.ancestor(i, (job,)) >= 0
        ]
        if builds:
            out[f"span_cdf_build_ms.{band}"] = statistics.median(builds)
    value = median_ms(lambda r: r["cls"] == "coverage" and 0.0 < r["l_over_eps"] <= 7.3)
    if value is not None:
        out["coverage_ms.l_le_7.3eps"] = value
    return out

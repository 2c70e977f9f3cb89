"""One benchmark worker: a fresh interpreter that sets up, runs a workload
in a closed loop (one job at a time) and prints a JSON report as its last
stdout line. Started by run.py; not meant to be run by hand.

    worker.py --root DIR --workload NAME --seed N --seconds S --trace 0|1
    worker.py --root DIR --workload NAME --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import warnings


class Deadline(BaseException):
    """Raised in the main thread by SIGALRM when a job overruns its deadline.

    A BaseException, so library code catching Exception cannot swallow it."""


def _alarm(signum, frame):
    raise Deadline()


def percentile(values, q):
    """Linear-interpolated percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def parse_args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    return ap.parse_args(argv)


class Runner:
    """Runs jobs one at a time under a deadline, times them, then gates them."""

    def __init__(self, cl, gate_error):
        self.cl = cl
        self.gate_error = gate_error
        self.tracer = None
        self.typed = (
            cl.NormalizationError,
            cl.CapacityError,
            cl.QuadratureError,
            cl.PrecisionWarning,
        )
        self.precision_warnings = 0

    def run_job(self, job):
        """Returns a record dict: class, seconds, status, reps, estimate seconds."""
        out = None
        status = "ok"
        t0 = t1 = 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if job.typed_ok:
                warnings.simplefilter("error", self.cl.PrecisionWarning)
            signal.setitimer(signal.ITIMER_REAL, job.deadline_s)
            try:
                if self.tracer is not None:
                    self.tracer.active = True
                call = job.run if self.tracer is None else self.tracer.wrap(job.run, f"job:{job.cls}")
                t0 = time.perf_counter()
                try:
                    out = call()
                finally:
                    t1 = time.perf_counter()
                    if self.tracer is not None:
                        self.tracer.active = False
            except Deadline:
                status = "deadline"
            except self.typed as exc:
                status = "typed_ok" if job.typed_ok else f"error {type(exc).__name__}: {exc}"
            except Exception as exc:  # an unexpected error fails the job; the run goes on
                status = f"error {type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.precision_warnings += sum(1 for w in caught if issubclass(w.category, self.cl.PrecisionWarning))
        if status == "ok":
            try:
                job.check(out)
            except self.gate_error as exc:
                status = f"gate {exc}"
            except Exception as exc:  # a crashing check is a failed gate
                status = f"gate {type(exc).__name__}: {exc}"
        est_s = out[1] if job.reps and status == "ok" else 0.0
        return {
            "cls": job.cls,
            "group": job.group,
            "s": t1 - t0,
            "ok": status in ("ok", "typed_ok"),
            "status": status,
            "reps": job.reps,
            "est_s": est_s,
            "argv": job.argv,
            "l_over_eps": job.l_over_eps,
            "out": out if job.argv and status == "ok" else None,
        }

    def run_pass(self, jobs):
        records = [self.run_job(job) for job in jobs]
        return records, sum(r["s"] for r in records)

    def inprocess_cli(self, argv):
        """cli.main in this process on the same argv; (seconds, bytes)."""
        import clusterline.cli as cli_module

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t0 = time.perf_counter()
            code = cli_module.main(list(argv))
            dt = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"in-process cli {argv[0]} exited {code}")
        return dt, buf.getvalue().encode("utf-8")


def setup(args):
    """Everything a user pays before the first answer: imports, then one
    warm-up job per job class on models outside the timed set."""
    src = os.path.join(args.root, "src")
    import clusterline as cl  # PYTHONPATH points at src
    import clusterline.cli  # noqa: F401

    if not os.path.abspath(cl.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"clusterline imported from {cl.__file__}, not from {src}")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads as w

    runner = Runner(cl, w.GateError)
    everything = w.workloads(args.root)
    workload = everything[args.workload]
    for job in workload.warmup_jobs():
        record = runner.run_job(job)
        if not record["ok"]:
            raise SystemExit(f"warm-up job {job.cls} failed: {record['status']}")
    return runner, everything, workload


def run_probes(workload, probes):
    for name, probe in workload.probes.items():
        probes.setdefault(name, []).append(probe())


def run_timed(runner, workload, seed, seconds):
    """Closed-loop passes within `seconds` of wall time: another pass starts
    only if one of the average length so far still fits (one always runs).
    The workload's host-speed probes run, untimed for the jobs, before the
    first job, after the last and between jobs every `probe_every_s`.
    Returns the passes, their walls and the probe times by probe name."""
    passes, walls, probes = [], [], {}
    run_probes(workload, probes)
    start = last_probe = time.perf_counter()
    index = 0
    while True:
        records = []
        for job in workload.jobs(seed, index):
            records.append(runner.run_job(job))
            if time.perf_counter() - last_probe >= workload.probe_every_s:
                run_probes(workload, probes)
                last_probe = time.perf_counter()
        passes.append(records)
        walls.append(sum(r["s"] for r in records))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    run_probes(workload, probes)
    return passes, walls, probes, index


def group_times(records, times):
    """Every job's time, with the jobs of a group (the same work repeated in
    the run) all given the group's median: one slow or fast moment then moves
    a percentile only as much as it moves a median over the whole run."""
    groups = {}
    for index, (r, t) in enumerate(zip(records, times)):
        groups.setdefault(r["group"] or index, []).append(t)
    return [statistics.median(v) for v in groups.values() for _ in v]


def timing_figures(passes, times, suffix=""):
    """wall_s, job_p50_ms and job_p90_ms from one time per record."""
    records = [r for p in passes for r in p]
    walls, at = [], 0
    for p in passes:
        walls.append(sum(times[at:at + len(p)]))
        at += len(p)
    grouped = group_times(records, times)
    return {
        f"wall{suffix}_s": statistics.median(walls),
        f"job_p50{suffix}_ms": 1e3 * percentile(grouped, 50),
        f"job_p90{suffix}_ms": 1e3 * percentile(grouped, 90),
    }


def summarize(passes, walls, probes, workload):
    records = [r for p in passes for r in p]
    failed = [r for r in records if not r["ok"]]
    # the host's speed drifts by 20-40% within minutes; each probe drifts
    # with one resource, and the workload refers its jobs' times to them
    medians = {name: statistics.median(v) for name, v in probes.items()}
    out = {
        "passes": len(passes),
        "jobs_per_pass": len(passes[0]),
        "attempted": len(records),
        "failed": len(failed),
        "failed_frac": len(failed) / len(records),
        "failures": sorted({f"{r['cls']}: {r['status']}" for r in failed})[:20],
        "pass_walls_s": walls,
        "job_samples": len(records),
        "probe_median_s": medians,
        "probe_samples": {name: len(v) for name, v in probes.items()},
        **timing_figures(passes, [r["s"] for r in records]),
        **timing_figures(passes, workload.refer(records, medians), "_ref"),
    }
    by_class = {}
    for r in records:
        by_class.setdefault(r["cls"], []).append(r["s"])
    out["class_median_ms"] = {c: 1e3 * statistics.median(v) for c, v in by_class.items()}
    mc = [r for r in records if r["reps"] and r["ok"]]
    if mc:
        out["mc_reps_per_s"] = sum(r["reps"] for r in mc) / sum(r["est_s"] for r in mc)
    return out


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def check_cli_bytes(runner, cli, records):
    """Each distinct argv must have been spawned twice with identical bytes;
    spawn once more (untimed) where a run had a single pass."""
    seen = {}
    for r in records:
        if r["argv"] and r["ok"]:
            seen.setdefault(tuple(r["argv"]), []).append(r)
    for argv, recs in seen.items():
        if len(recs) == 1:
            job = cli.spawn_job(list(argv), True)
            check = runner.run_job(job)
            if not check["ok"]:
                recs[0]["ok"] = False
                recs[0]["status"] = check["status"]


def trace_run(args, everything, runner, workload):
    from tracer import SpanStats, Tracer
    import metrics

    untraced_passes, untraced_walls, probes, next_pass = run_timed(runner, workload, args.seed, args.seconds / 2)
    others = [x for name, x in everything.items() if name != workload.name]
    census = [job for x in others for job in x.census_jobs()]
    census_records, _ = runner.run_pass(census)

    tracer = Tracer()
    tracer.active = False
    tracer.install()
    runner.tracer = tracer
    runner.precision_warnings = 0
    cli_rows = []
    try:
        traced_jobs = workload.jobs(args.seed, next_pass)
        traced_records, traced_wall = runner.run_pass(traced_jobs)
        census_traced, _ = runner.run_pass([job for x in others for job in x.census_jobs()])
        for r in traced_records + census_traced:
            if r["argv"] and r["ok"]:
                plain_s, data = runner.inprocess_cli(r["argv"])
                tracer.active = True
                try:
                    traced_s, traced_data = runner.inprocess_cli(r["argv"])
                finally:
                    tracer.active = False
                if not (data == traced_data == r["out"][1]):
                    r["ok"] = False
                    r["status"] = "gate in-process cli bytes differ from the spawn"
                cli_rows.append({"sub": r["argv"][0], "spawn_s": r["s"], "plain_s": plain_s,
                                 "traced_s": traced_s, "bytes": len(data)})
    finally:
        tracer.uninstall()
        runner.tracer = None
    traced_warnings = runner.precision_warnings

    if workload.name == "cli":
        overhead = sum(c["traced_s"] for c in cli_rows) / sum(c["plain_s"] for c in cli_rows) - 1.0
    else:
        overhead = traced_wall / statistics.median(untraced_walls) - 1.0
    untraced = [r for p in untraced_passes for r in p] + census_records
    stats = SpanStats(tracer.spans())
    layer = metrics.layer_metrics(stats, tracer.installed, untraced, cli_rows, traced_warnings)
    layer["trace.overhead_frac"] = (overhead, "ratio")
    report = summarize(untraced_passes, untraced_walls, probes, workload)
    report["traced_failed"] = [f"{r['cls']}: {r['status']}" for r in traced_records + census_traced if not r["ok"]]
    report["crosscheck"] = metrics.crosscheck([r for p in untraced_passes for r in p], stats)
    if args.trace_out:
        tracer.write(args.trace_out)
        report["trace_file"] = args.trace_out
    return report, layer, traced_records + census_traced


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)
    runner, everything, workload = setup(args)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0
    # untimed edge probes, reported but not counted in the timed job list
    # (see DESIGN.md)
    edge = [runner.run_job(job) for job in getattr(workload, "edge_jobs", list)()]

    if args.trace:
        report, layer, extra = trace_run(args, everything, runner, workload)
        all_records = extra
    else:
        passes, walls, probes, _ = run_timed(runner, workload, args.seed, args.seconds)
        if workload.name == "cli":
            check_cli_bytes(runner, workload, [r for p in passes for r in p])
        report = summarize(passes, walls, probes, workload)
        layer = None
        all_records = []
    report["peak_rss_mb"] = peak_rss_mb()
    report["ready_at"] = ready_at
    report["precision_warnings"] = runner.precision_warnings
    if edge:
        report["edge"] = {
            "attempted": len(edge),
            "failed": sum(1 for r in edge if not r["ok"]),
            "jobs": {r["cls"]: f"{r['status']} in {r['s']:.3f} s" for r in edge},
        }
    if layer is not None:
        report["layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        report["failed"] += sum(1 for r in all_records if not r["ok"])
        report["attempted"] += len(all_records)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

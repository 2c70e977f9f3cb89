"""clusterline benchmark: one command, four workloads, one JSON result line.

    python3 perfbench/run.py --workload exact|laws|mc|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from its
``src`` directory; nothing is installed). The run

1. times set-up (fresh interpreter to ready: imports and one warm-up job per
   job class) in several fresh interpreters and keeps the median;
2. runs the workload in a worker process, closed loop, one job at a time,
   for about S seconds, checking every job's output untimed;
3. prints a report line and then, as the last line, the result object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics of a traced run with --trace 1.

It exits non-zero without a result line when it cannot run, e.g. outside a
checkout that holds ``src/clusterline``. DESIGN.md gives the rationale.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("exact", "laws", "mc", "cli")
SETUP_PROBES = 3  # fresh-interpreter set-ups before the worker and as many after; with the worker's own, seven
WORKER_TIMEOUT_S = 170.0
END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "job_p50_ref_ms": "ms",
    "job_p90_ref_ms": "ms",
    "peak_rss_mb": "MB",
}
RAW = {"wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms"}  # as measured, before referring to the probe


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], timeout: float) -> tuple[float, dict]:
    """Start a worker; return (monotonic start time, its last-line report)."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--root", ROOT, *argv],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv} exited with status {proc.returncode}")
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker {argv} printed no report")
    return started, json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="clusterline benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "clusterline", "__init__.py")):
        print(f"perfbench: no clusterline sources under {ROOT}/src", file=sys.stderr)
        return 2

    def time_setups():
        for _ in range(SETUP_PROBES):
            started, probe = run_child(["--workload", args.workload, "--setup-only"], 120.0)
            setups.append(probe["ready_at"] - started)

    # set-up time shifts between two levels for tens of seconds at a time,
    # so it is sampled on both sides of the run
    setups = []
    try:
        time_setups()
        worker_args = [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.trace:
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            worker_args += ["--trace-out", os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")]
        started, report = run_child(worker_args, WORKER_TIMEOUT_S)
        setups.append(report["ready_at"] - started)
        time_setups()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    report["setup_s"] = statistics.median(setups)
    report["setup_samples_s"] = setups
    layer = report.pop("layer", None)
    report.pop("ready_at", None)
    # every end-to-end figure by name and unit, the result's five plus the
    # two that cannot be result metrics (see DESIGN.md)
    figures = {name: {"value": report[name], "unit": unit} for name, unit in {**END_TO_END, **RAW}.items()}
    figures["failed_frac"] = {"value": report["failed"] / report["attempted"], "unit": "ratio"}
    if "mc_reps_per_s" in report:
        figures["mc_reps_per_s"] = {"value": report["mc_reps_per_s"], "unit": "1/s"}
    line = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "end_to_end": figures, "report": report}
    print(json.dumps(line))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": layer if args.trace else {name: figures[name] for name in END_TO_END},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Check the result line of one perfbench run.

    python3 .github/scripts/check_bench_result.py RUN_OUTPUT [BENCHMARK_JSON]

RUN_OUTPUT holds the stdout of ``perfbench/run.py``; its last non-empty
line is the result object. It must be strict JSON (NaN and Infinity are
rejected) with a boolean ``correct``, integer ``attempted`` (> 0) and
``failed`` counts, and a ``metrics`` object. A traced run (``--trace 1``)
must carry every per-layer metric that BENCHMARK.json declares, an
untraced run every end-to-end metric, each as a finite number or as an
object whose ``value`` is one. The report line above the result must be a
JSON object whose ``report.edge.failed``, when the workload has edge probes,
is 0: every probe answers or raises a typed error within its deadline.
Exits 1 with one line per problem otherwise.
"""

from __future__ import annotations

import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def problems(line: str, declared: dict) -> list[str]:
    try:
        result = json.loads(line, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"result line is not strict JSON: {exc}"]
    if not isinstance(result, dict):
        return ["result line is not a JSON object"]
    found = []
    if not isinstance(result.get("correct"), bool):
        found.append("'correct' is not a boolean")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and attempted > 0):
        found.append(f"'attempted' is not a positive integer: {attempted!r}")
    if not (isinstance(failed, int) and failed >= 0):
        found.append(f"'failed' is not a non-negative integer: {failed!r}")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return found + ["'metrics' is not an object"]
    names = declared["per_layer"] if set(metrics) - set(declared["end_to_end"]) else declared["end_to_end"]
    for name in names:
        entry = metrics.get(name)
        value = entry.get("value") if isinstance(entry, dict) else entry
        if entry is None:
            found.append(f"metric {name} is missing")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"metric {name} is not a finite number: {entry!r}")
    return found


def edge_problems(line: str) -> list[str]:
    """Problems with the report line's edge probes; a workload without them has none."""
    try:
        report = json.loads(line, parse_constant=_reject_constant)["report"]
    except (ValueError, TypeError, KeyError) as exc:
        return [f"report line holds no report object: {exc!r}"]
    edge = report.get("edge", {"failed": 0}) if isinstance(report, dict) else None
    if not isinstance(edge, dict) or edge.get("failed") != 0:
        return [f"edge probes did not all answer or raise a typed error in time: {edge!r}"]
    return []


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    bench_path = argv[2] if len(argv) == 3 else os.path.join(ROOT, "BENCHMARK.json")
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {key: [m["name"] for m in bench[key]] for key in ("per_layer", "end_to_end")}
    with open(argv[1], encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    found = problems(lines[-1], declared) + edge_problems(lines[-2]) if len(lines) >= 2 else ["no report and result lines"]
    for problem in found:
        print(f"{argv[1]}: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

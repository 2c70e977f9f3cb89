"""The benchmark's tracer still finds every function its metrics are built from.

perfbench/tracer.py wraps package functions by name and perfbench/metrics.py
leaves out a metric whose functions it did not find, so renaming or deleting
a hooked function silently drops declared metrics from a traced run. Here
the tracer is installed, its metrics are built from an empty trace, and
every declared per-layer metric must come out, except those built from the
records of a run: MC throughput, CLI timings and the trace overhead. The
only hooks the tracer may miss are those whose functions the package has
retired.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FROM_RUN_RECORDS = ("mc_engine.reps_per_s", "mc_engine.us_per_rep.", "cli.", "trace.overhead_frac")
RETIRED_HOOKS = {
    "_pn.count_prob_deriv",
    "cluster_laws.span_tail_rate",
    "component_counts._circle_mp",
    "component_counts._incomplete_g_table",
    "component_counts._incomplete_mp",
    "mc_engine._RngPool.reset",
}


def test_every_declared_metric_has_its_hooks():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import metrics
        from tracer import HOOKS, SpanStats, Tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    tracer = Tracer()
    tracer.install()
    try:
        emitted = metrics.layer_metrics(SpanStats([]), tracer.installed, [], [], 0)
    finally:
        tracer.uninstall()
    expected = [name for name in declared if not name.startswith(FROM_RUN_RECORDS)]
    assert len(declared) - len(expected) == 27
    assert [name for name in expected if name not in emitted] == []
    assert {f"{module}.{name}" for module, name, _ in HOOKS} - tracer.installed == RETIRED_HOOKS

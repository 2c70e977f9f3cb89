"""In-memory span tracer installed around clusterline's layers from outside.

The tracer replaces module-level functions of each layer module (and the
names other clusterline modules bound to them through ``from ... import``)
with thin wrappers that record one span per call: name, start, end, parent
and an optional numeric tag (a dps, a point count, a replication count).
Nothing in the package is edited; ``uninstall`` puts every original back.

Spans live in flat per-thread lists and are written out once, at the end.
Self time is a span's duration minus the time its direct children cover.
A function that does not exist at this commit is simply not wrapped, so the
metrics built from it are absent rather than an error.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict


# (module, function name, tag extractor or None). The extractor gets
# (args, kwargs, result) and returns the number stored with the span.
HOOKS: list[tuple[str, str, object]] = [
    ("_pn", "count_prob", None),
    ("_pn", "count_prob_mp", lambda a, k, r: k.get("dps", a[4] if len(a) > 4 else 0)),
    ("_pn", "count_prob_deriv", None),
    ("_pn", "count_prob_grid", lambda a, k, r: getattr(r, "size", 1)),
    ("_pn", "count_prob_deriv_grid", None),
    ("special_fn", "stirling_row", None),
    ("special_fn", "stirling2", None),
    ("special_fn", "polylog_neg", None),
    ("special_fn", "partial_exp_sum", None),
    ("component_counts", "pmf_complete", None),
    ("component_counts", "pmf_incomplete", None),
    ("component_counts", "pmf_circle", None),
    ("component_counts", "_incomplete_mp", lambda a, k, r: k.get("dps", a[5] if len(a) > 5 else 0)),
    ("component_counts", "_circle_mp", lambda a, k, r: k.get("dps", a[5] if len(a) > 5 else 0)),
    ("component_counts", "_incomplete_g_table", None),
    ("component_counts", "pmf_complete_table", None),
    ("component_counts", "pmf_incomplete_table", None),
    ("component_counts", "pmf_circle_table", None),
    ("component_counts", "moment_complete", None),
    ("component_counts", "mean_complete", None),
    ("component_counts", "var_complete", None),
    ("component_counts", "var_critical_points", None),
    ("component_counts", "coverage_prob", None),
    ("component_counts", "coverage_prob_closed", None),
    ("component_counts", "coverage_report", None),
    ("quadrature", "integrate_adaptive", None),
    ("quadrature", "_panel_integral", None),
    ("quadrature", "PanelCdf.__init__", None),
    ("quadrature", "PanelCdf.__call__", None),
    ("cluster_laws", "cluster_length_law", None),
    ("cluster_laws", "cluster_length_density_at", None),
    ("cluster_laws", "cycle_sum_density", None),
    ("cluster_laws", "cluster_length_cdf", None),
    ("cluster_laws", "cycle_sum_cdf", None),
    ("cluster_laws", "span_tail_rate", None),
    ("cluster_laws", "mean_cluster_length", None),
    ("laplace_check", "count_transform_residuals", lambda a, k, r: len(r)),
    ("laplace_check", "numeric_laplace", None),
    ("laplace_check", "laplace_pmf_closed", None),
    ("mc_engine", "estimate", lambda a, k, r: (k.get("config") or a[3]).replications),
    ("mc_engine", "_RngPool.reset", None),
    ("stats_compare", "compare_pmf", None),
    ("stats_compare", "compare_continuous", None),
    ("cli", "main", None),
    ("cli", "_emit", None),
]

# Builders whose returned callable is itself traced, as "cluster_laws.cdf_eval".
CDF_BUILDERS = ("cluster_laws.cluster_length_cdf", "cluster_laws.cycle_sum_cdf")
CDF_EVAL = "cluster_laws.cdf_eval"


class _Buffer:
    """Spans of one thread, as parallel lists (indices are buffer-local)."""

    def __init__(self):
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.tag: list[float] = []
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()
        # recording pauses while untimed correctness checks run
        self.active = True

    # -- recording ---------------------------------------------------------
    def _buf(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, tag=None, wrap_result=None):
        nid = self._name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            buf = self._buf()
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.tag.append(0.0)
            buf.end.append(0.0)
            buf.stack.append(idx)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()
            if tag is not None:
                buf.tag[idx] = float(tag(args, kwargs, result))
            if wrap_result is not None:
                result = wrap_result(result)
            return result

        return traced

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        package = importlib.import_module("clusterline")
        modules = {}
        for name in {m for m, _, _ in HOOKS}:
            try:
                modules[name] = importlib.import_module(f"clusterline.{name}")
            except ModuleNotFoundError:
                continue
        everywhere = [package] + [
            mod for key, mod in sys.modules.items() if key.startswith("clusterline.") and mod is not None
        ]
        for mod_name, attr, tag in HOOKS:
            mod = modules.get(mod_name)
            if mod is None:
                continue
            full = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                original = cls.__dict__.get(meth) if cls is not None else None
                if original is None:
                    continue
                self._set(cls, meth, self.wrap(original, full, tag))
                self.installed.add(full)
                continue
            original = getattr(mod, attr, None)
            if original is None or not callable(original):
                continue
            wrap_result = self._cdf_wrapper if full in CDF_BUILDERS else None
            wrapper = self.wrap(original, full, tag, wrap_result)
            for target in everywhere:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._set(target, key, wrapper)
            self.installed.add(full)

    def _cdf_wrapper(self, cdf):
        return self.wrap(cdf, CDF_EVAL)

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------
    def spans(self) -> list[tuple[str, float, float, int, float]]:
        """All spans as (name, start, end, parent, tag), parents global."""
        out = []
        for buf in self._buffers:
            base = len(out)
            for i in range(len(buf.name)):
                p = buf.parent[i]
                out.append((self.names[buf.name[i]], buf.start[i], buf.end[i], p + base if p >= 0 else -1, buf.tag[i]))
        return out

    def write(self, path) -> None:
        spans = self.spans()
        doc = {
            "names": self.names,
            "fields": ["name", "start", "end", "parent", "tag"],
            "spans": [[self._name_ids[s[0]], s[1], s[2], s[3], s[4]] for s in spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class SpanStats:
    """Aggregates over a finished span list: per-name calls, inclusive and
    self time, tag sums, and ancestor queries."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        child_time = [0.0] * n
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.tag_sum: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, tag) in enumerate(spans):
            self.calls[name] += 1
            self.incl[name] += end - start
            self.self_time[name] += (end - start) - child_time[i]
            self.tag_sum[name] += tag

    def ancestor(self, i: int, names) -> int:
        """Index of the nearest ancestor of span i whose name is in names, or -1."""
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return p
            p = self.spans[p][3]
        return -1

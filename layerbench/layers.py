"""Per-layer tracing for one benchmark job, from outside the program.

The traced job installs wrappers around each layer's entry points (the
graph reader, partitioner, static analysis, engine selection, engine
construction and run, the swath observer, the dense executor, the process
engine's spawn and shutdown, cost attribution and the telemetry writers)
and attaches :class:`LayerTracer`, a :class:`~repro.obs.SpanTracer` that
also feeds the engine's own phase spans (superstep, compute, flush,
checkpoint, recovery) into the same recorder.  Nothing in the program
changes; the wrappers live here.

Entry points of modules the program has not imported yet are wrapped
when it first imports them (:class:`_LateImports`), so the traced job
imports what an untraced job imports, at the same point.  A listed entry
point missing from the program raises :class:`LayerMissing`.

Two kinds of timer:

* **spans** (name, start, end, parent) for calls made a few hundred times
  per job at most;
* **leaf counters** (calls, self seconds) for hot calls — the program's
  ``payload_nbytes``/``state_nbytes`` and ``PartitionWorker.deliver_remote``
  run once or more per message, far too often for a span each.

A span's self time is its duration minus its child spans and minus the
leaf-counter time spent inside it outside those children, so the self
times of every span under the job span, plus the leaf counters, add up to
the job's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import importlib.machinery
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

#: engine phase span (SpanTracer name) -> layer; unlisted engine spans are
#: not recorded, so their time stays with the enclosing layer
ENGINE_SPANS = {
    "job": "bsp.run",
    "superstep": "bsp.superstep",
    "compute": "bsp.compute",
    "flush": "bsp.flush",
    "aggregate-merge": "bsp.barrier",
    "master-compute": "bsp.barrier",
    "checkpoint": "bsp.checkpoint",
    "recovery": "bsp.recovery",
}

#: layer -> metric reporting the layer's summed self time (seconds)
SELF_TIME_METRICS = {
    "import": "import.s",
    "import.lazy": "import.lazy_s",
    "graph.read": "graph.read_s",
    "partition": "partition.s",
    "check.profile": "check.profile_s",
    "check.lift": "check.lift_s",
    "check.optimize": "check.optimize_s",
    "analysis.select": "analysis.select_s",
    "bsp.ctor": "bsp.ctor_s",
    "bsp.run": "bsp.run_s",
    "bsp.compute": "bsp.compute_s",
    "bsp.flush": "bsp.flush_s",
    "bsp.barrier": "bsp.barrier_s",
    "bsp.superstep": "bsp.superstep_self_s",
    "bsp.extract": "bsp.extract_s",
    "bsp.checkpoint": "bsp.checkpoint_s",
    "bsp.recovery": "bsp.recovery_s",
    "bsp.sizing": "bsp.sizing_s",
    "bsp.deliver": "bsp.deliver_s",
    "dense.ctor": "dense.ctor_s",
    "dense.run": "dense.run_s",
    "scheduling.observer": "scheduling.observer_s",
    "dist.spawn": "dist.spawn_s",
    "dist.shutdown": "dist.shutdown_s",
    "obs.write": "obs.write_s",
    "cloud.cost": "cloud.cost_s",
    "job": "job.other_s",
}

#: hot calls timed as leaf counters: counter name -> layer
LEAF_LAYERS = {
    "sizing.payload": "bsp.sizing",
    "sizing.state": "bsp.sizing",
    "deliver": "bsp.deliver",
}


class Recorder:
    """In-memory spans and counters of one traced job process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.clock = time.perf_counter
        self.spans: list[dict] = []
        self.detached: list[dict] = []  # remote work (worker-compute)
        self._stack: list[dict] = []
        self.leaf_total = 0.0  # seconds charged to leaf counters so far
        self.leaves: dict[str, list] = {name: [0, 0.0] for name in LEAF_LAYERS}
        self.calls: dict[str, int] = {}  # count-only entry points
        self.seen: dict[str, Any] = {}  # last receiver/result of some calls
        self.original: dict[str, Callable] = {}  # unwrapped functions
        self.late_imports: _LateImports | None = None

    # -- spans ---------------------------------------------------------
    def open(self, layer: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "layer": layer,
            "start": self.clock(),
            "end": None,
            "leaf": self.leaf_total,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        now = self.clock()
        while self._stack:  # spans an exception skipped close with it
            top = self._stack.pop()
            top["end"] = now
            top["leaf"] = self.leaf_total - top["leaf"]
            if top is span:
                return

    def add(self, layer: str, start: float, end: float) -> None:
        """A closed top-level span timed before the recorder existed."""
        self.spans.append({
            "id": len(self.spans), "parent": None, "layer": layer,
            "start": start, "end": end, "leaf": 0.0,
        })

    # -- wrappers ------------------------------------------------------
    def span_wrapper(self, layer: str, fn: Callable, keep: str | None = None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(span)
            if keep == "self":
                rec.seen[layer] = args[0]
            elif keep == "result":
                rec.seen[layer] = out
            return out

        return wrapper

    def leaf_wrapper(self, name: str, fn: Callable):
        rec = self
        stat = self.leaves[name]
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            before = rec.leaf_total
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - (rec.leaf_total - before)
                rec.leaf_total = before + dt

        return wrapper

    def count_wrapper(self, name: str, fn: Callable):
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- analysis ------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Self seconds of every closed span, keyed by span id."""
        child_time: dict[int, float] = {}
        child_leaf: dict[int, float] = {}
        for s in self.spans:
            p = s["parent"]
            if p is not None:
                child_time[p] = child_time.get(p, 0.0) + s["end"] - s["start"]
                child_leaf[p] = child_leaf.get(p, 0.0) + s["leaf"]
        return {
            s["id"]: (s["end"] - s["start"]) - child_time.get(s["id"], 0.0)
            - (s["leaf"] - child_leaf.get(s["id"], 0.0))
            for s in self.spans
        }

    def to_dict(self) -> dict:
        selfs = self.self_times()
        return {
            "run_id": self.run_id,
            "clock": "perf_counter",
            "spans": [
                {**s, "self": selfs[s["id"]]} for s in self.spans
            ],
            "detached": self.detached,
            "leaves": {k: {"calls": v[0], "self": v[1]}
                       for k, v in self.leaves.items()},
            "calls": dict(self.calls),
        }

    def write_json(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_dict(), indent=1))


def layer_tracer(rec: Recorder):
    """A SpanTracer whose engine phase spans also land in ``rec``."""
    from repro.obs import SpanTracer

    class LayerTracer(SpanTracer):
        def __init__(self) -> None:
            super().__init__(clock=rec.clock)
            self._base = rec.clock() - self.now()  # tracer time -> clock
            self._mirror: dict[int, dict] = {}

        def start(self, name, sim=0.0, category="phase", **attrs):
            span = super().start(name, sim=sim, category=category, **attrs)
            layer = ENGINE_SPANS.get(name)
            if layer is not None:
                self._mirror[span.index] = rec.open(layer)
            return span

        def end(self, span, sim=None, **attrs):
            out = super().end(span, sim=sim, **attrs)
            mirror = self._mirror.pop(span.index, None)
            if mirror is not None:
                rec.close(mirror)
            return out

        def record(self, name, *args, **kwargs):
            span = super().record(name, *args, **kwargs)
            if span.host_duration > 0:
                rec.detached.append({
                    "name": name,
                    "parent": rec._stack[-1]["id"] if rec._stack else None,
                    "start": self._base + span.host_start,
                    "end": self._base + span.host_end,
                    "attrs": {k: v for k, v in span.attrs.items()
                              if isinstance(v, (int, float, str))},
                })
            return span

    return LayerTracer()


#: functions timed as spans: defining module -> [(layer, function)]
SPAN_FUNCTIONS = {
    "repro.graph.io": [("graph.read", "read_edge_list")],
    "repro.check.costmodel": [("check.profile", "profile_of")],
    "repro.check.vectorize": [("check.lift", "lift_of")],
    "repro.check.planopt": [("check.optimize", "optimize_plan")],
    "repro.analysis.engine_select": [
        ("analysis.select", "select_engine"),
        ("analysis.select", "dense_refused_features"),
    ],
    "repro.cloud.costmeter": [("cloud.cost", "attribute_cost")],
    "repro.obs.export": [("obs.write", "write_prometheus")],
}

#: static-analysis passes, counted: defining module -> [function]
PASS_FUNCTIONS = {
    "repro.check.costmodel": ["profile_source"],
    "repro.check.vectorize": ["lift_source"],
}

#: methods timed as spans: module -> [(class, method, layer, keep)]
SPAN_METHODS = {
    "repro.partition.hashing": [
        ("HashPartitioner", "partition", "partition", "result"),
    ],
    "repro.bsp.engine": [
        ("BSPEngine", "__init__", "bsp.ctor", None),
        ("BSPEngine", "run", "bsp.run", None),
        ("BSPEngine", "_account_superstep", "bsp.barrier", None),
        ("BSPEngine", "_extract_values", "bsp.extract", None),
    ],
    "repro.dist": [
        ("ProcessBSPEngine", "__init__", "dist.spawn", None),
        ("ProcessBSPEngine", "shutdown", "dist.shutdown", None),
        ("ProcessBSPEngine", "_extract_values", "bsp.extract", None),
    ],
    "repro.bsp.dense_ref": [
        ("DenseRefEngine", "__init__", "dense.ctor", None),
        ("DenseRefEngine", "run", "dense.run", None),
    ],
    "repro.scheduling.controller": [
        ("SwathController", "on_superstep_end", "scheduling.observer", "self"),
    ],
    "repro.cloud.costmeter": [
        ("CostMeter", "on_superstep_end", "cloud.cost", None),
        ("CostMeter", "on_job_end", "cloud.cost", None),
    ],
    "repro.obs": [
        ("RunTimeline", "write_json", "obs.write", None),
        ("SpanTracer", "write_json", "obs.write", None),
        ("FlightRecorder", "close", "obs.write", None),
    ],
}

#: hot methods timed by leaf counters: module -> [(class, method, counter)]
LEAF_METHODS = {
    "repro.bsp.worker": [("PartitionWorker", "deliver_remote", "deliver")],
    **{
        module: [(cls, "payload_nbytes", "sizing.payload"),
                 (cls, "state_nbytes", "sizing.state")]
        for module, cls in (("repro.algorithms.bc", "BCProgram"),
                            ("repro.algorithms.pagerank", "PageRankProgram"))
    },
}

PATCHED_MODULES = [*dict.fromkeys(
    [*SPAN_FUNCTIONS, *PASS_FUNCTIONS, *SPAN_METHODS, *LEAF_METHODS]
)]


class LayerMissing(RuntimeError):
    """A wrapped entry point is gone from the program."""


def _missing(where: str) -> LayerMissing:
    # fatal: left unwrapped, the entry point's time would move silently
    # into the enclosing span and its layer would read 0
    return LayerMissing(
        f"{where} not found: its layer cannot be timed; update "
        "layerbench/layers.py to the program"
    )


def _patch_function(rec: Recorder, module, name: str, make) -> None:
    """Replace ``module.name`` by ``make(original)`` wherever a loaded
    repro module holds the original."""
    orig = vars(module).get(name)
    if orig is None:
        raise _missing(f"{module.__name__}.{name}")
    rec.original[f"{module.__name__}.{name}"] = orig
    new = make(orig)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _patch_method(rec: Recorder, cls: type, attr: str, make) -> None:
    """Replace ``cls.attr`` by ``make(original)``."""
    orig = cls.__dict__.get(attr)
    if orig is None:
        raise _missing(f"{cls.__module__}.{cls.__name__}.{attr}")
    setattr(cls, attr, make(orig))


def _patch_module(rec: Recorder, module) -> None:
    """Wrap every entry point the tables list for ``module``."""
    name = module.__name__
    for layer, fn in SPAN_FUNCTIONS.get(name, []):
        _patch_function(rec, module, fn,
                        lambda f, layer=layer: rec.span_wrapper(layer, f))
    for fn in PASS_FUNCTIONS.get(name, []):
        _patch_function(rec, module, fn,
                        lambda f: rec.count_wrapper("check.passes", f))
    for cls, attr, layer, keep in SPAN_METHODS.get(name, []):
        if not hasattr(module, cls):
            raise _missing(f"{name}.{cls}")
        _patch_method(rec, getattr(module, cls), attr,
                      lambda f, layer=layer, keep=keep:
                      rec.span_wrapper(layer, f, keep))
    for cls, attr, counter in LEAF_METHODS.get(name, []):
        if not hasattr(module, cls):
            raise _missing(f"{name}.{cls}")
        _patch_method(rec, getattr(module, cls), attr,
                      lambda f, counter=counter: rec.leaf_wrapper(counter, f))


class _LateImports(importlib.abc.MetaPathFinder):
    """Wraps the program's modules that are first imported after
    :func:`install`, and times those imports.

    The program imports some layers lazily, inside the job (PageRank's
    static analysis, for one).  Importing them up front to wrap them
    would move their import time out of the traced job, which would then
    differ from an untraced one.  An import made while a span is open is
    timed as layer ``import.lazy``.
    """

    def __init__(self, rec: Recorder, pending: set[str]) -> None:
        self.rec = rec
        self.pending = pending

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        rec, pending = self.rec, self.pending
        exec_module = spec.loader.exec_module

        def timed_exec(module):
            span = rec.open("import.lazy") if rec._stack else None
            try:
                exec_module(module)
            finally:
                if span is not None:
                    rec.close(span)
            if fullname in pending:
                pending.discard(fullname)
                _patch_module(rec, module)

        spec.loader.exec_module = timed_exec
        return spec


def install(rec: Recorder) -> None:
    """Wrap every layer's entry points: those of loaded modules now, the
    others when the program first imports them (call once)."""
    pending = set()
    for name in PATCHED_MODULES:
        if name in sys.modules:
            _patch_module(rec, sys.modules[name])
        else:
            pending.add(name)
    rec.late_imports = _LateImports(rec, pending)
    sys.meta_path.insert(0, rec.late_imports)


def finish(rec: Recorder) -> None:
    """After the job: import, and so wrap or find missing, every listed
    module the job did not load; then stop watching imports."""
    for name in sorted(rec.late_imports.pending):
        try:
            importlib.import_module(name)
        except ModuleNotFoundError as exc:
            raise _missing(name) from exc
    sys.meta_path.remove(rec.late_imports)


#: every per-layer metric: (name, unit, better); BENCHMARK.json lists the
#: same names in the same order
PER_LAYER = [
    ("import.s", "s", "lower"),
    ("import.lazy_s", "s", "lower"),
    ("graph.read_s", "s", "lower"),
    ("graph.vertices", "count", "higher"),
    ("graph.arcs", "count", "higher"),
    ("partition.s", "s", "lower"),
    ("partition.remote_arc_ratio", "ratio", "lower"),
    ("check.profile_s", "s", "lower"),
    ("check.lift_s", "s", "lower"),
    ("check.optimize_s", "s", "lower"),
    ("check.passes_per_job", "count", "lower"),
    ("analysis.select_s", "s", "lower"),
    ("analysis.engine", "code", "higher"),
    ("analysis.engine_observed", "code", "higher"),
    ("bsp.ctor_s", "s", "lower"),
    ("bsp.run_s", "s", "lower"),
    ("bsp.compute_s", "s", "lower"),
    ("bsp.flush_s", "s", "lower"),
    ("bsp.barrier_s", "s", "lower"),
    ("bsp.superstep_self_s", "s", "lower"),
    ("bsp.superstep_p50_ms", "ms", "lower"),
    ("bsp.superstep_p98_ms", "ms", "lower"),
    ("bsp.supersteps", "count", "lower"),
    ("bsp.compute_calls", "count", "lower"),
    ("bsp.messages", "count", "lower"),
    ("bsp.remote_messages", "count", "lower"),
    ("bsp.wire_bytes", "bytes", "lower"),
    ("bsp.msgs_per_s", "1/s", "higher"),
    ("bsp.sizing_calls", "count", "lower"),
    ("bsp.sizing_s", "s", "lower"),
    ("bsp.sizing_calls_per_msg", "ratio", "lower"),
    ("bsp.deliver_calls", "count", "lower"),
    ("bsp.deliver_s", "s", "lower"),
    ("bsp.extract_s", "s", "lower"),
    ("bsp.checkpoint_s", "s", "lower"),
    ("bsp.recovery_s", "s", "lower"),
    ("bsp.recoveries", "count", "lower"),
    ("dense.ctor_s", "s", "lower"),
    ("dense.run_s", "s", "lower"),
    ("dense.trace_rows", "count", "higher"),
    ("scheduling.swaths", "count", "lower"),
    ("scheduling.observer_s", "s", "lower"),
    ("dist.spawn_s", "s", "lower"),
    ("dist.shutdown_s", "s", "lower"),
    ("dist.worker_compute_s", "s", "lower"),
    ("dist.worker_busy_ratio", "ratio", "higher"),
    ("dist.frames", "count", "lower"),
    ("dist.frame_bytes", "bytes", "lower"),
    ("dist.respawns", "count", "lower"),
    ("obs.write_s", "s", "lower"),
    ("obs.flight_events", "count", "lower"),
    ("obs.timeline_rows", "count", "lower"),
    ("obs.spans", "count", "lower"),
    ("cloud.cost_s", "s", "lower"),
    ("job.other_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: counts that must repeat exactly across two traced runs of one seed
COUNTS = [
    "graph.vertices", "graph.arcs", "partition.remote_arc_ratio",
    "check.passes_per_job", "analysis.engine", "analysis.engine_observed",
    "bsp.supersteps", "bsp.compute_calls", "bsp.messages",
    "bsp.remote_messages", "bsp.wire_bytes", "bsp.sizing_calls",
    "bsp.sizing_calls_per_msg", "bsp.deliver_calls", "bsp.recoveries",
    "dense.trace_rows", "scheduling.swaths", "dist.frames",
    "dist.frame_bytes", "dist.respawns", "obs.flight_events",
    "obs.timeline_rows", "obs.spans",
]

#: flight events whose number depends on host timing, not on the job
_TIMING_EVENTS = ("heartbeat-send", "heartbeat-miss")


def job_metrics(rec: Recorder, result, graph, *, engine: str, workers: int,
                passes: int, sinks: dict) -> dict:
    """Every per-layer metric of one traced job except the overhead ratio.

    ``passes`` counts the static-analysis passes entered during the job;
    ``sinks`` are the workload's own telemetry objects (empty unless the
    workload attaches them).
    """
    import numpy as np

    selfs = rec.self_times()
    out: dict[str, float] = {name: 0 for name, _, _ in PER_LAYER}
    for s in rec.spans:
        out[SELF_TIME_METRICS[s["layer"]]] += selfs[s["id"]]
    for name, (_, seconds) in rec.leaves.items():
        out[SELF_TIME_METRICS[LEAF_LAYERS[name]]] += seconds

    def inclusive(layer: str) -> list[float]:
        by_id = {s["id"]: s for s in rec.spans}
        return [
            s["end"] - s["start"] for s in rec.spans
            if s["layer"] == layer and (
                s["parent"] is None or by_id[s["parent"]]["layer"] != layer
            )
        ]

    out["graph.vertices"] = int(graph.num_vertices)
    out["graph.arcs"] = int(graph.num_arcs)
    part = rec.seen.get("partition")
    if part is not None:
        a = np.asarray(part.assignment)
        src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
        out["partition.remote_arc_ratio"] = float(
            np.mean(a[src] != a[np.asarray(graph.indices)])
        ) if graph.num_arcs else 0.0
    out["check.passes_per_job"] = passes

    steps = list(result.trace)
    step_ms = [d * 1e3 for d in inclusive("bsp.superstep")]
    if step_ms:
        out["bsp.superstep_p50_ms"] = float(np.percentile(step_ms, 50))
        out["bsp.superstep_p98_ms"] = float(np.percentile(step_ms, 98))
    out["bsp.supersteps"] = int(result.supersteps)
    out["bsp.compute_calls"] = sum(s.compute_calls for s in steps)
    out["bsp.messages"] = int(result.trace.total_messages)
    out["bsp.remote_messages"] = sum(s.remote_messages for s in steps)
    out["bsp.wire_bytes"] = int(round(
        sum(ws.bytes_out for s in steps for ws in s.workers)
    ))
    run_s = sum(inclusive("bsp.run"))
    out["bsp.msgs_per_s"] = out["bsp.messages"] / run_s if run_s > 0 else 0.0
    payload_calls = rec.leaves["sizing.payload"][0]
    out["bsp.sizing_calls"] = payload_calls + rec.leaves["sizing.state"][0]
    out["bsp.sizing_calls_per_msg"] = (
        payload_calls / out["bsp.messages"] if out["bsp.messages"] else 0.0
    )
    out["bsp.deliver_calls"] = rec.leaves["deliver"][0]
    out["bsp.recoveries"] = len(result.recoveries)
    out["dense.trace_rows"] = len(steps) if engine == "dense-ref" else 0

    controller = rec.seen.get("scheduling.observer")
    out["scheduling.swaths"] = controller.num_swaths if controller else 0

    if engine == "process":
        worker_s = sum(d["end"] - d["start"] for d in rec.detached
                       if d["name"] == "worker-compute")
        compute_s = sum(inclusive("bsp.compute"))
        out["dist.worker_compute_s"] = worker_s
        out["dist.worker_busy_ratio"] = (
            worker_s / (workers * compute_s) if compute_s > 0 else 0.0
        )
    metrics = sinks.get("metrics")
    if metrics is not None:
        totals = {name: sum(i.value for i in insts)
                  for name, kind, _, insts in metrics.collect()
                  if kind == "counter"}
        out["dist.frames"] = int(totals.get("dist_frames_total", 0))
        out["dist.frame_bytes"] = int(totals.get("dist_frame_bytes_total", 0))
        out["dist.respawns"] = int(totals.get("dist_worker_respawns_total", 0))
    flight = sinks.get("flight")
    if flight is not None and flight.sink_path is not None:
        kinds = [json.loads(line)["kind"]
                 for line in flight.sink_path.read_text().splitlines()]
        out["obs.flight_events"] = sum(k not in _TIMING_EVENTS for k in kinds)
    if sinks.get("timeline") is not None:
        out["obs.timeline_rows"] = len(sinks["timeline"].rows)
    if sinks.get("out") is not None:  # the workload's own SpanTracer
        out["obs.spans"] = len(sinks["tracer"].spans)
    return out


def job_breakdown(rec: Recorder, job: dict) -> dict[str, float]:
    """Self seconds per layer metric under the ``job`` span.

    The values add up to the job span's duration: every span under it is
    counted once by its self time, and the leaf counters it covers by
    theirs (all leaf calls happen inside the job).
    """
    selfs = rec.self_times()
    inside = {job["id"]}
    out: dict[str, float] = {}
    for s in rec.spans:  # a parent precedes its children
        if s["id"] in inside or s["parent"] in inside:
            inside.add(s["id"])
            metric = SELF_TIME_METRICS[s["layer"]]
            out[metric] = out.get(metric, 0.0) + selfs[s["id"]]
    for name, (_, seconds) in rec.leaves.items():
        metric = SELF_TIME_METRICS[LEAF_LAYERS[name]]
        out[metric] = out.get(metric, 0.0) + seconds
    return out

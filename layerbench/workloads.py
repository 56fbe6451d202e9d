"""The benchmark's three workloads: inputs, the job call, and references.

Each workload is a WG analogue graph generated from the run's seed plus
one library call that runs a whole job and returns a ``JobResult``.  The
same functions build the job in the measured child process (``job.py``)
and in the parent's untimed reference runs (``run.py``), so a reference
can only differ from a measured job through the program itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

#: the engines ``auto`` ranks, ordered so that a higher code is a faster
#: kind of backend; ``analysis.engine*`` metrics report these codes
ENGINE_CODES = {"sim": 0, "threaded": 1, "process": 2, "tcp": 3, "dense-ref": 4}

#: iterations of both PageRank workloads
PAGERANK_ITERATIONS = 30


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float  # WG analogue scale: 1,750 vertices per unit
    workers: int
    engine: str  # the backend the job asks for
    roots: int = 0  # traversal roots (bc-swath only)
    memory_mb: float = 0.0  # worker memory cap (bc-swath only)
    checkpoint_interval: int = 0
    kill_after: int = -1  # superstep after which worker 1 is killed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bc-swath", scale=1.5, workers=8, engine="sim", roots=16,
                 memory_mb=0.8),
        Workload("pagerank-lifted", scale=128, workers=8, engine="auto"),
        Workload(
            "pagerank-recovery", scale=2, workers=2, engine="process",
            checkpoint_interval=5, kill_after=12,
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs (parent side, before any timing)
# ----------------------------------------------------------------------
def make_inputs(w: Workload, seed: int, directory: Path) -> dict:
    """Generate the seeded graph and roots; write the SNAP edge list.

    Returns the job spec the child receives: the edge-list path and the
    root list, nothing else about how the graph was made.
    """
    from repro.graph import datasets
    from repro.graph.io import write_edge_list

    graph = datasets.load("WG", w.scale, seed=seed)
    path = directory / f"{w.name}-{seed}.txt"
    write_edge_list(graph, path)
    roots: list[int] = []
    if w.roots:
        rng = np.random.default_rng(seed)
        picked = rng.choice(graph.num_vertices, size=w.roots, replace=False)
        roots = sorted(int(r) for r in picked)
    return {
        "workload": w.name,
        "scale": w.scale,
        "seed": seed,
        "graph": str(path),
        "roots": roots,
    }


# ----------------------------------------------------------------------
# The job: everything before ``run`` is set-up, ``run`` is job_s
# ----------------------------------------------------------------------
def perf_model(w: Workload):
    from repro.cloud.costmodel import SCALED_PERF_MODEL

    if w.checkpoint_interval:
        # the fault-tolerance example's regime: whole simulated seconds
        # per superstep, a quick fabric restart, slow blob storage
        return replace(SCALED_PERF_MODEL, restart_time=5.0,
                       checkpoint_bandwidth=2e6)
    return SCALED_PERF_MODEL


def prepare(w: Workload, graph, roots, *, engine: str | None = None,
            sinks: dict | None = None):
    """Build everything the job call needs (``repro run``'s set-up).

    ``engine`` pins the backend (the traced run pins what ``auto`` chose
    untraced); ``sinks`` holds the telemetry objects a workload attaches.
    Returns ``run()``, a zero-argument callable that makes the one library
    call and returns its ``JobResult``.
    """
    from repro.analysis.runner import RunConfig, run_pagerank, run_traversal

    sinks = sinks or {}
    if w.name == "bc-swath":
        from repro.algorithms import BCProgram
        from repro.check import profile_of
        from repro.scheduling import AdaptiveSizer, DynamicPeakDetect

        cap = int(w.memory_mb * 1e6)
        cfg = RunConfig(
            num_workers=w.workers, perf_model=perf_model(w),
            engine=engine or w.engine, tracer=sinks.get("tracer"),
        ).with_memory(cap)
        sizer = AdaptiveSizer.from_profile(
            profile_of(BCProgram), int(cap * 6 / 7),
            num_vertices=graph.num_vertices, num_edges=graph.num_edges,
            num_workers=w.workers,
        )

        def run():
            return run_traversal(
                graph, cfg, roots, kind="bc", sizer=sizer,
                initiation=DynamicPeakDetect(),
            ).result

        return run

    if w.name == "pagerank-lifted":
        cfg = RunConfig(
            num_workers=w.workers, perf_model=perf_model(w),
            engine=engine or w.engine, tracer=sinks.get("tracer"),
        ).with_memory(1 << 62)

        def run():
            return run_pagerank(graph, cfg, iterations=PAGERANK_ITERATIONS)

        return run

    if w.name == "pagerank-recovery":
        return _prepare_recovery(w, graph, engine or w.engine, sinks)
    raise KeyError(f"unknown workload {w.name!r}")


def _prepare_recovery(w: Workload, graph, engine: str, sinks: dict):
    from repro.algorithms import PageRankProgram
    from repro.bsp import JobSpec
    from repro.bsp.engine import BSPEngine
    from repro.cloud.costmeter import CostMeter
    from repro.dist import ProcessBSPEngine
    from repro.obs import write_prometheus

    metrics = sinks.get("metrics")
    spec = JobSpec(
        program=PageRankProgram(iterations=PAGERANK_ITERATIONS),
        graph=graph,
        num_workers=w.workers,
        perf_model=perf_model(w),
        checkpoint_interval=w.checkpoint_interval,
        failure_schedule={w.kill_after: 1},
        observers=[CostMeter(metrics)] if metrics is not None else [],
        tracer=sinks.get("tracer"),
        metrics=metrics,
        timeline=sinks.get("timeline"),
        flight=sinks.get("flight"),
    )
    engine_cls = {"process": ProcessBSPEngine, "sim": BSPEngine}[engine]
    out = sinks.get("out")

    def run():
        result = engine_cls(spec).run()
        if out is not None:
            sinks["timeline"].write_json(out / "timeline.json")
            sinks["tracer"].write_json(out / "spans.json")
            write_prometheus(metrics, out / "metrics.prom")
            sinks["flight"].close()
        return result

    return run


def recovery_sinks(out: Path, tracer=None) -> dict:
    """Every telemetry sink the recovery workload attaches, file-backed."""
    from repro.obs import FlightRecorder, MetricsRegistry, RunTimeline, SpanTracer

    flight = FlightRecorder()
    flight.attach_sink(out / "events.ndjson")
    return {
        "metrics": MetricsRegistry(),
        "timeline": RunTimeline(),
        "tracer": tracer if tracer is not None else SpanTracer(),
        "flight": flight,
        "out": out,
    }


# ----------------------------------------------------------------------
# References (parent side, once per seed, outside timing)
# ----------------------------------------------------------------------
def model_output(result) -> dict:
    """The simulated-cloud figures a run reports (the paper's model)."""
    return {
        "sim_time": float(result.total_time),
        "cost": float(result.total_cost),
        "messages": int(result.trace.total_messages),
        "supersteps": int(result.supersteps),
        "recoveries": len(result.recoveries),
    }


def references(w: Workload, graph, roots) -> dict:
    """Values from the sequential reference algorithms and, where the
    workload promises it, the model output of a ``sim`` run of the job."""
    from repro.algorithms import betweenness_reference, pagerank_reference

    if w.name == "bc-swath":
        values = betweenness_reference(graph, roots=roots)
    else:
        values = pagerank_reference(graph, iterations=PAGERANK_ITERATIONS)
    ref = {"values": values, "model": None}
    if w.name in ("bc-swath", "pagerank-recovery"):
        ref["model"] = model_output(prepare(w, graph, roots, engine="sim")())
    return ref


#: values must match the reference within rtol 1e-9 and an absolute
#: floor of 1e-12 of the largest reference value
VALUE_RTOL = 1e-9
VALUE_ATOL_SHARE = 1e-12


def check(ref: dict, values: np.ndarray, model: dict) -> list[str]:
    """Mismatches between one job's outputs and the references."""
    problems = []
    expect = ref["values"]
    if values.shape != expect.shape:
        problems.append(f"values: shape {values.shape} != {expect.shape}")
    else:
        atol = VALUE_ATOL_SHARE * float(np.max(np.abs(expect), initial=0.0))
        bad = ~np.isclose(values, expect, rtol=VALUE_RTOL, atol=atol)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            problems.append(
                f"values: {int(bad.sum())} differ, first at vertex {i}: "
                f"{values[i]!r} != {expect[i]!r}"
            )
    if ref["model"] is not None:
        for key, want in ref["model"].items():
            got = model.get(key)
            if got != want:
                problems.append(f"model {key}: {got!r} != sim {want!r}")
    return problems


def program_of(w: Workload):
    from repro.algorithms import BCProgram, PageRankProgram

    if w.name == "bc-swath":
        return BCProgram()
    return PageRankProgram(iterations=PAGERANK_ITERATIONS)


def auto_pick(w: Workload, program, profile, verdict, sinks, *,
              features_fn, select_fn) -> str:
    """The engine ``engine="auto"`` picks for this workload's job with the
    named telemetry ``sinks`` attached, binding the job as the runner does
    (BC's swath controller is an observer).  The selection functions are
    passed in so that a traced job can time one call and not the other.
    """
    observers = ["swath-controller"] if w.name == "bc-swath" else []
    features = features_fn(program, verdict, observers=observers, sinks=sinks)
    return select_fn(verdict=verdict, profile=profile, num_workers=w.workers,
                     features=features).engine

"""One benchmark job: a fresh process that runs one workload's job once.

Usage: python3 layerbench/job.py SPEC.json OUT.json [--trace]

SPEC names the workload, the edge-list file and the root list.  The
process imports ``repro.cli`` (what ``repro run`` pays), reads the edge
list, builds the job, makes the one library call that runs it, and writes
OUT.json with its CPU and wall-clock times, model output and resident
memory peak, and the result values next to it as OUT.npy.  With
``--trace`` it also installs the layer wrappers (``layers.py``) after the
import and writes per-layer metrics and the span tree (OUT.spans.json).

CPU seconds cover this process and the worker processes it has reaped,
so the process engine's workers count in ``job_s``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def cpu_seconds() -> float:
    """User + system CPU seconds of this process and its reaped children.

    Unlike wall-clock time, CPU time leaves out the time a shared host
    takes the processor away (steal), so it repeats across runs.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv: list[str]) -> int:
    spec_path, out_path = Path(argv[0]), Path(argv[1])
    traced = "--trace" in argv[2:]

    t0 = time.perf_counter()
    import repro.cli  # noqa: F401  (the import a `repro run` user pays)

    t1 = time.perf_counter()
    import numpy as np

    import workloads

    spec = json.loads(spec_path.read_text())
    w = workloads.WORKLOADS[spec["workload"]]
    sinks: dict = {}
    rec = None
    if traced:
        import layers

        rec = layers.Recorder(run_id=spec["run_id"])
        rec.add("import", t0, t1)
        layers.install(rec)
        sinks["tracer"] = layers.layer_tracer(rec)

    from repro.graph import io as graph_io

    graph = graph_io.read_edge_list(spec["graph"])
    if w.name == "pagerank-recovery":
        out_dir = out_path.with_suffix(".sinks")
        out_dir.mkdir()
        sinks = workloads.recovery_sinks(out_dir, tracer=sinks.get("tracer"))
    run = workloads.prepare(w, graph, spec["roots"], engine=spec.get("engine"),
                            sinks=sinks)

    if rec is not None:
        rec.calls["check.passes"] = 0
        job_span = rec.open("job")
    setup_cpu = cpu_seconds()
    t4 = time.perf_counter()
    result = run()
    job_wall = time.perf_counter() - t4
    job_cpu = cpu_seconds() - setup_cpu
    if rec is not None:
        rec.close(job_span)
        passes = rec.calls["check.passes"]
        layers.finish(rec)

    decision = result.engine_decision
    engine = decision.engine if decision is not None else (
        spec.get("engine") or w.engine
    )
    values = result.values_array()
    np.save(out_path.with_suffix(".npy"), values)
    out = {
        "setup_s": setup_cpu,
        "job_s": job_cpu,
        "job_wall_s": job_wall,
        "engine": engine,
        "model": workloads.model_output(result),
    }
    if rec is not None:
        from repro.analysis import engine_select

        program = workloads.program_of(w)
        profile = rec.original["repro.check.costmodel.profile_of"](program)
        verdict = rec.original["repro.check.vectorize.lift_of"](program)
        picks = [
            workloads.auto_pick(
                w, program, profile, verdict, names,
                features_fn=features_fn, select_fn=select_fn,
            )
            for names, features_fn, select_fn in (
                ([], engine_select.dense_refused_features,
                 engine_select.select_engine),
                (["tracer", "metrics", "timeline"],
                 rec.original[
                     "repro.analysis.engine_select.dense_refused_features"],
                 rec.original["repro.analysis.engine_select.select_engine"]),
            )
        ]
        metrics = layers.job_metrics(
            rec, result, graph, engine=engine, workers=w.workers,
            passes=passes, sinks=sinks,
        )
        metrics["analysis.engine"] = workloads.ENGINE_CODES[picks[0]]
        metrics["analysis.engine_observed"] = workloads.ENGINE_CODES[picks[1]]
        out["layers"] = metrics
        out["labels"] = {"engine": picks[0], "engine_observed": picks[1]}
        out["job_breakdown"] = layers.job_breakdown(rec, job_span)
        rec.write_json(out_path.with_suffix(".spans.json"))
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    out_path.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

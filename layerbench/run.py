"""Layered host-time benchmark of the BSP stack (see layerbench/README.md).

Usage, from the root of a checkout:

    python3 layerbench/run.py --workload bc-swath --seed 1 --seconds 30 --trace 0

Generates the workload's graph (and roots) from ``--seed``, writes it as a
SNAP edge list and computes the reference results, all before timing.
Then runs jobs as a closed loop with one client: each job is a fresh
Python process (``job.py``) and the next starts when the previous one has
exited, until ``--seconds`` have passed.  Every job's values and model
output are checked against the references.

``--trace 0`` reports the end-to-end metrics as medians over the jobs.
``--trace 1`` runs one untraced job to learn the engine, then, for
``--seconds``, pairs of an untraced and a traced job, both pinned to that
engine, and one traced job on the next seed.  It gates the counts (they
must repeat on the seed and differ on the next) and reports the per-layer
metrics.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".layerbench"

#: end-to-end metric -> unit.  Times are CPU seconds (user + system) of
#: the job's processes: on a shared host the wall clock also counts the
#: time the hypervisor takes the processor away, which varies run to run
#: by more than any bound could tolerate.  Wall-clock medians are printed.
END_TO_END = {"cpu_s": "s", "setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}

#: fewest jobs one run measures, however long they take
MIN_JOBS = 3
#: a job that takes longer than this has hung
JOB_TIMEOUT_S = 150


class TracedRunError(RuntimeError):
    """The traced run cannot report: a job did not complete (a layer's
    entry point is missing, say) or the counts broke the determinism gate."""


def spawn_job(spec_path: Path, out_path: Path, traced: bool) -> dict:
    """Run one job process to its exit; return its timings and outputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    cmd = [sys.executable, str(HERE / "job.py"), str(spec_path), str(out_path)]
    if traced:
        cmd.append("--trace")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=spec_path.parent,
                              capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"no exit within {JOB_TIMEOUT_S} s"}
    exited = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    out = json.loads(out_path.read_text())
    out["wall_s"] = exited - spawned
    out["cpu_s"] = (after.ru_utime + after.ru_stime
                    - before.ru_utime - before.ru_stime)
    return out


class Bench:
    """One run: a workload's inputs, references and jobs."""

    def __init__(self, workload, work: Path) -> None:
        self.w = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.jobs = 0

    def prepare(self, seed: int) -> tuple[Path, dict]:
        """Write the seed's inputs and compute its references (untimed)."""
        import workloads
        from repro.graph.io import read_edge_list

        spec = workloads.make_inputs(self.w, seed, self.work)
        spec["run_id"] = f"{self.w.name}-{seed}-{os.getpid()}"
        path = self.work / f"spec-{seed}.json"
        path.write_text(json.dumps(spec))
        graph = read_edge_list(spec["graph"])
        return path, workloads.references(self.w, graph, spec["roots"])

    def job(self, spec_path: Path, ref: dict, traced: bool = False,
            engine: str | None = None) -> dict | None:
        """Run and judge one job; None when it produced no output."""
        import numpy as np

        if engine is not None:
            spec = json.loads(spec_path.read_text())
            spec["engine"] = engine
            spec_path = spec_path.with_name(f"{spec_path.stem}-{engine}.json")
            spec_path.write_text(json.dumps(spec))
        self.jobs += 1
        out_path = self.work / f"job-{self.jobs}.json"
        out = spawn_job(spec_path, out_path, traced)
        if "error" in out:
            self.attempted += 1
            self.failed += 1
            print(f"job {self.jobs} failed: {out['error']}", file=sys.stderr)
            return None
        out["values"] = out_path.with_suffix(".npy")
        out["spans"] = out_path.with_suffix(".spans.json")
        self.judge(np.load(out["values"]), out["model"], ref)
        return out

    def judge(self, values, model: dict, ref: dict) -> None:
        """Count one job's outputs as attempted, and as failed if wrong."""
        import workloads

        self.attempted += 1
        problems = workloads.check(ref, values, model)
        if problems:
            self.failed += 1
            print(f"job {self.jobs} is wrong: " + "; ".join(problems),
                  file=sys.stderr)

    def loop(self, spec_path: Path, ref: dict, seconds: float) -> list[dict]:
        """Closed loop, one client: jobs back to back for ``seconds``."""
        samples = []
        start = time.monotonic()
        tries = 0
        while tries < MIN_JOBS or time.monotonic() - start < seconds:
            tries += 1
            out = self.job(spec_path, ref)
            if out is not None:
                samples.append(out)
        return samples


def summarize(samples: list[dict]) -> dict:
    """Median of every end-to-end metric, printed with its spread."""
    metrics = {}
    for name, unit in [*END_TO_END.items(), ("wall_s", "s"),
                       ("job_wall_s", "s")]:
        values = [s[name] for s in samples]
        med = statistics.median(values)
        print(f"  {name:<12} {med:12.6f} {unit:<3} median of {len(values)}"
              f" (min {min(values):.6f}, max {max(values):.6f})")
        if name in END_TO_END:
            metrics[name] = {"value": med, "unit": unit}
    return metrics


def traced_run(bench: Bench, seed: int, seconds: float) -> dict:
    """Per-layer metrics: traced jobs paired with untraced ones, count gate."""
    import layers

    spec_path, ref = bench.prepare(seed)
    probe = bench.job(spec_path, ref)
    if probe is None:
        raise TracedRunError("no untraced job completed")
    engine = probe["engine"]  # what the job ran; pinned from here on
    pairs = []
    start = time.monotonic()
    tries = 0
    while tries < MIN_JOBS or time.monotonic() - start < seconds:
        tries += 1
        plain = bench.job(spec_path, ref, engine=engine)
        traced = bench.job(spec_path, ref, traced=True, engine=engine)
        if traced is None:
            raise TracedRunError("a traced job did not complete")
        if plain is not None:
            pairs.append((plain, traced))
    if not pairs:
        raise TracedRunError("no untraced job on the pinned engine completed")
    traced = [t for _, t in pairs]
    next_path, next_ref = bench.prepare(seed + 1)
    other = bench.job(next_path, next_ref, traced=True, engine=engine)
    if other is None:
        raise TracedRunError("the traced job on the next seed did not complete")

    first = traced[0]["layers"]
    for i, t in enumerate(traced[1:], start=2):
        moved = [c for c in layers.COUNTS if t["layers"][c] != first[c]]
        if moved:
            raise TracedRunError(
                f"count determinism gate: traced jobs 1 and {i} of seed "
                f"{seed} differ: " + ", ".join(
                    f"{c} {first[c]} != {t['layers'][c]}" for c in moved)
            )
    nxt = other["layers"]
    same = ["graph.arcs"] if nxt["graph.arcs"] == first["graph.arcs"] else []
    if nxt["bsp.messages"] == first["bsp.messages"] and (
        first["bsp.messages"] or first["dense.trace_rows"]
    ):
        same.append("bsp.messages")
    if same:
        raise TracedRunError(f"count determinism gate: seeds {seed} and "
                             f"{seed + 1} give equal " + ", ".join(same))

    metrics = {}
    for name, unit, _ in layers.PER_LAYER:
        if name in layers.COUNTS:
            value = first[name]
        elif name == "trace.overhead_ratio":
            value = statistics.median(t["job_s"] / p["job_s"]
                                      for p, t in pairs)
        else:
            value = statistics.median(t["layers"][name] for t in traced)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<28} {value:16.6f} {unit}")
    print(f"  times are medians of {len(traced)} traced jobs; "
          "trace.overhead_ratio is the median of traced / untraced job_s "
          f"over {len(pairs)} pairs on {engine}")
    labels = traced[0]["labels"]
    print(f"  analysis.engine = {labels['engine']}, "
          f"analysis.engine_observed = {labels['engine_observed']}, "
          f"job ran on {engine}")
    breakdown = traced[0]["job_breakdown"]
    print(f"  traced job wall {traced[0]['job_wall_s']:.6f} s = "
          + " + ".join(f"{k} {v:.4f}" for k, v in sorted(
              breakdown.items(), key=lambda kv: -kv[1])))
    keep = WORK / "traces"
    keep.mkdir(parents=True, exist_ok=True)
    for i, t in enumerate(traced + [other], start=1):
        shutil.copyfile(t["spans"], keep / f"{bench.w.name}-{seed}-{i}.json")
    return metrics


def run(workload, seed: int, seconds: float, trace: int) -> int:
    """One benchmark run; prints the report, the result object last."""
    bench = Bench(workload, WORK / f"{workload.name}-{seed}-{os.getpid()}")
    bench.work.mkdir(parents=True)
    try:
        print(f"layerbench {workload.name} seed {seed} trace {trace}")
        if trace:
            metrics = traced_run(bench, seed, seconds)
        else:
            spec_path, ref = bench.prepare(seed)
            samples = bench.loop(spec_path, ref, seconds)
            if not samples:
                print("layerbench: no job completed", file=sys.stderr)
                return 1
            metrics = summarize(samples)
    except TracedRunError as exc:
        print(f"layerbench: traced run failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(f"  fail_ratio   {bench.failed}/{bench.attempted}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"layerbench: no program at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"layerbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
               args.trace)


if __name__ == "__main__":
    sys.exit(main())

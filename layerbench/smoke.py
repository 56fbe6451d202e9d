"""Smoke test of the benchmark itself, at a tiny scale.

Usage, from the root of a checkout:  python3 layerbench/smoke.py

For every workload it runs the benchmark once untraced and once traced on
a graph of a few hundred vertices, and asserts that:

* the last line of output is the result object, with every end-to-end
  (untraced) or per-layer (traced) metric of BENCHMARK.json by name and
  with its unit, and no failed job;
* the traced layers' self times add up to the traced job's wall time;
* a deliberately perturbed result — one value, or the simulated time —
  is counted as failed, so the correctness check bites;
* a wrapped entry point missing from the program stops the tracer;
* in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run

#: WG analogue scale of the smoke graphs (the generator's floor is 80
#: vertices; 0.2 gives 350)
SMOKE_SCALE = 0.2


def run_once(workload, trace: int) -> dict:
    """One benchmark run of ``workload``; returns its parsed last line."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.run(workload, seed=1, seconds=0, trace=trace)
    lines = buf.getvalue().strip().splitlines()
    assert code == 0, f"{workload.name} trace {trace}: exit {code}"
    return json.loads(lines[-1])


def check_metrics(result: dict, expected: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0, (label, result)
    assert result["attempted"] >= 1, label
    got = result["metrics"]
    names = [m["name"] for m in expected]
    assert list(got) == names, (label, sorted(set(names) ^ set(got)))
    for m in expected:
        entry = got[m["name"]]
        assert set(entry) == {"value", "unit"}, (label, m["name"])
        assert entry["unit"] == m["unit"], (label, m["name"], entry["unit"])
        assert isinstance(entry["value"], (int, float)), (label, m["name"])


def check_jobs(workload) -> None:
    """Traced self times add up to job_s; a wrong value and a wrong
    simulated time each count as failed."""
    import numpy as np

    bench = run.Bench(workload, run.WORK / f"smoke-{workload.name}")
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        spec_path, ref = bench.prepare(1)
        out = bench.job(spec_path, ref)
        assert out is not None and bench.failed == 0, workload.name
        traced = bench.job(spec_path, ref, traced=True, engine=out["engine"])
        covered = sum(traced["job_breakdown"].values())
        wall = traced["job_wall_s"]
        assert abs(covered - wall) <= 1e-3 + 0.01 * wall, (
            workload.name, covered, wall)
        assert bench.failed == 0, workload.name
        values = np.load(out["values"])
        bad_values = values.copy()
        bad_values[len(bad_values) // 2] += 1e-6 * np.max(np.abs(values))
        with contextlib.redirect_stderr(io.StringIO()):  # expected reports
            bench.judge(bad_values, out["model"], ref)
            assert bench.failed == 1, f"{workload.name}: perturbed value passed"
            if ref["model"] is not None:
                bad_model = dict(out["model"],
                                 sim_time=out["model"]["sim_time"] * (1 + 1e-12))
                bench.judge(values, bad_model, ref)
                assert bench.failed == 2, (
                    f"{workload.name}: perturbed time passed")
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def check_bare_directory() -> None:
    """Without the program the benchmark fails fast and prints no result."""
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copyfile(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload",
             "bc-swath", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0, "bare directory: exit 0"
        assert '"metrics"' not in proc.stdout, "bare directory: printed result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def check_missing_layer() -> None:
    """A layer entry point the program lost makes ``install`` raise.

    Runs last: the failed install leaves this process's program wrapped.
    """
    import layers
    from repro.bsp.engine import BSPEngine

    orig = BSPEngine.__dict__["_account_superstep"]
    del BSPEngine._account_superstep
    try:
        layers.install(layers.Recorder(run_id="smoke-missing"))
    except layers.LayerMissing:
        return
    finally:
        BSPEngine._account_superstep = orig
    raise AssertionError("missing entry point went unnoticed")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name, full in workloads.WORKLOADS.items():
        w = replace(full, scale=SMOKE_SCALE)
        check_metrics(run_once(w, 0), spec["end_to_end"], f"{name} trace 0")
        traced = run_once(w, 1)
        check_metrics(traced, spec["per_layer"], f"{name} trace 1")
        check_jobs(w)
        print(f"ok  {name}")
    check_bare_directory()
    print("ok  bare directory")
    check_missing_layer()
    print("ok  missing layer entry point")
    return 0


if __name__ == "__main__":
    sys.exit(main())

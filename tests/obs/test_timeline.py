"""RunTimeline: recording, serialization, rollback, engine equivalence.

The contracts: the timeline is the committed-steps view of the job trace —
its steps are the engine's own SuperstepStats objects, by reference — and
serializes one row per committed (superstep, worker) carrying only
deterministic simulated quantities; byte-identical JSON across the
sim/process backends on the same seed and against the golden files under
``data/``; and rollback that makes a failed-and-recovered run's timeline
equal an undisturbed run's — including on the process engine's real
kill/respawn path.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.algorithms import PageRankProgram
from repro.analysis import traces
from repro.analysis.runner import RunConfig, run_traversal
from repro.bsp import (
    JobSpec,
    SuperstepStats,
    WorkerStepStats,
    run_job,
    run_job_process,
)
from repro.cloud.costmodel import DEFAULT_PERF_MODEL
from repro.dist import ProcessBSPEngine
from repro.elastic import LiveElasticEngine, LivePolicy
from repro.graph import generators as gen
from repro.obs import (
    RunTimeline,
    read_timeline,
    timeline_from_dict,
    timeline_to_dict,
)
from repro.scheduling import DynamicPeakDetect, StaticSizer

DATA = Path(__file__).parent / "data"


def make_job(graph, timeline, **kw):
    kw.setdefault("num_workers", 4)
    kw.setdefault("checkpoint_interval", 2)
    return JobSpec(
        program=PageRankProgram(6), graph=graph, timeline=timeline, **kw
    )


class TestRecording:
    def test_one_row_per_step_and_worker(self, small_world):
        tl = RunTimeline()
        res = run_job(make_job(small_world, tl))
        assert len(tl.steps) == res.supersteps
        assert len(tl.rows) == res.supersteps * 4
        assert {r.worker for r in tl.rows} == {0, 1, 2, 3}
        assert tl.num_workers == 4
        assert tl.rolled_back_rows == 0

    def test_totals_match_job_result(self, small_world):
        tl = RunTimeline()
        res = run_job(make_job(small_world, tl))
        assert tl.total_time == pytest.approx(res.total_time)
        assert tl.steps[-1].sim_time_end == pytest.approx(res.total_time)
        assert tl.total_messages == res.trace.total_messages

    def test_no_timeline_is_fine(self, small_world):
        res = run_job(make_job(small_world, None))
        assert res.supersteps > 0

    def test_queue_depth_recorded(self, small_world):
        tl = RunTimeline()
        run_job(make_job(small_world, tl))
        # PageRank floods every edge each round: mid-run rows buffer work.
        assert any(r.queue_depth > 0 for r in tl.rows)
        # The last superstep (past max iterations) buffers nothing.
        assert all(w.queue_depth == 0 for w in tl.steps[-1].workers)

    def test_matrix_and_per_worker_total(self, small_world):
        tl = RunTimeline()
        run_job(make_job(small_world, tl))
        m = tl.matrix("compute_calls")
        assert m.shape == (len(tl.steps), 4)
        assert m.sum() == sum(r.compute_calls for r in tl.rows)
        per_w = tl.per_worker_total("msgs_out")
        assert per_w.sum() == tl.total_messages


class TestSerialization:
    def test_round_trip(self, small_world, tmp_path):
        tl = RunTimeline()
        run_job(make_job(small_world, tl))
        tl.annotate(2, "note", detail="x")
        p = tmp_path / "tl.json"
        tl.write_json(p)
        back = read_timeline(p)
        assert timeline_to_dict(back) == timeline_to_dict(tl)
        assert back.events == [{"superstep": 2, "kind": "note", "detail": "x"}]

    def test_version_checked(self):
        with pytest.raises(ValueError, match="version"):
            timeline_from_dict({"version": 99, "rows": [], "steps": []})

    def test_rejects_non_timeline_dumps(self):
        with pytest.raises(ValueError, match="trace or spans"):
            timeline_from_dict({"version": 1, "spans": []})


def fake_stats(index, elapsed_by_worker, barrier=0.5):
    """A small SuperstepStats for unit-level recording."""
    workers = [
        WorkerStepStats(worker=w, compute_time=t)
        for w, t in enumerate(elapsed_by_worker)
    ]
    slowest = max(elapsed_by_worker)
    return SuperstepStats(
        index=index, num_workers=len(workers), workers=workers,
        active_begin=1, active_end=1, barrier_time=barrier,
        elapsed=slowest + barrier,
        sim_time_end=(index + 1) * (slowest + barrier),
    )


class TestRollback:
    def test_rollback_drops_and_counts(self):
        tl = RunTimeline()
        for i in range(5):
            tl.append(fake_stats(i, [1.0, 2.0]))
        tl.annotate(1, "early")
        tl.annotate(4, "late")
        tl.rollback(3)
        assert [s.index for s in tl.steps] == [0, 1, 2]
        assert tl.rolled_back_rows == 4
        assert [e["kind"] for e in tl.events] == ["early"]

    def test_recovered_run_records_like_clean_run(self, small_world):
        # checkpoint_interval=3 checkpoints cover through steps 2 and 5, so
        # a failure at step 4 rolls the already-recorded step 3 back and
        # replays it.
        clean, failed = RunTimeline(), RunTimeline()
        run_job(make_job(small_world, clean, checkpoint_interval=3))
        res = run_job(
            make_job(
                small_world, failed, checkpoint_interval=3,
                failure_schedule={4: 1},
            )
        )
        assert res.recoveries
        assert failed.rolled_back_rows > 0
        d_clean, d_failed = timeline_to_dict(clean), timeline_to_dict(failed)
        # Rows replay identically; only the recovery-charged step's
        # elapsed/cumulative sim times differ.
        assert d_clean["rows"] == d_failed["rows"]
        assert len(d_clean["steps"]) == len(d_failed["steps"])

    def test_failure_on_checkpoint_boundary_keeps_committed_row(
        self, small_world
    ):
        # interval=2 checkpoints at the same boundary the failure fires
        # (step 3's checkpoint covers through step 3): the step is
        # committed, so its rows must survive even though the epoch failed.
        clean, failed = RunTimeline(), RunTimeline()
        run_job(make_job(small_world, clean))
        res = run_job(make_job(small_world, failed, failure_schedule={3: 1}))
        assert res.recoveries and res.recoveries[0].resumed_from == 4
        assert timeline_to_dict(clean)["rows"] == timeline_to_dict(failed)["rows"]

    def test_process_engine_kill_respawn_rows_roll_back(self, small_world):
        clean, killed = RunTimeline(), RunTimeline()
        run_job(make_job(small_world, clean, checkpoint_interval=3))
        engine = ProcessBSPEngine(
            make_job(small_world, killed, checkpoint_interval=3)
        )
        engine.kill_worker_at(4, 1)
        res = engine.run()
        assert res.recoveries and res.recoveries[0].failed_worker == 1
        assert killed.rolled_back_rows > 0
        assert timeline_to_dict(clean)["rows"] == timeline_to_dict(killed)["rows"]
        # The replacement worker reports under the same worker id.
        assert {r.worker for r in killed.rows} == {0, 1, 2, 3}


class TestEngineEquivalence:
    def test_timeline_byte_identical_across_backends(self, small_world):
        model = dataclasses.replace(
            DEFAULT_PERF_MODEL, jitter=0.3, jitter_seed=7
        )
        dumps = {}
        for name, runner in (
            ("sim", run_job),
            ("process", run_job_process),
        ):
            tl = RunTimeline()
            runner(make_job(small_world, tl, perf_model=model))
            dumps[name] = json.dumps(timeline_to_dict(tl), sort_keys=True)
        assert dumps["sim"] == dumps["process"]


class TestOverheadTime:
    def test_overhead_isolates_checkpoint_cost(self, small_world):
        tl = RunTimeline()
        run_job(make_job(small_world, tl, checkpoint_interval=2))
        # Checkpointing supersteps carry the write cost as overhead beyond
        # slowest-worker + barrier; non-checkpoint steps carry none.
        assert any(s.overhead_time > 0 for s in tl.steps)
        assert isinstance(tl.steps[0], SuperstepStats)


# ----------------------------------------------------------------------
# The committed-steps view: references into the trace, golden bytes
# ----------------------------------------------------------------------
def golden_graph():
    return gen.watts_strogatz(60, 4, 0.3, seed=7)


def pagerank_recovery_run():
    """PageRank on 4 workers with jitter, checkpoint-3 and a failure at
    step 4: the recovery path rolls committed steps back."""
    tl = RunTimeline()
    model = dataclasses.replace(DEFAULT_PERF_MODEL, jitter=0.3, jitter_seed=7)
    res = run_job(JobSpec(
        program=PageRankProgram(6), graph=golden_graph(), num_workers=4,
        perf_model=model, checkpoint_interval=3, failure_schedule={4: 1},
        timeline=tl,
    ))
    assert res.recoveries
    return tl, res


def bc_swath_run():
    """BC over three swaths; the controller annotates each initiation."""
    tl = RunTimeline()
    run = run_traversal(
        golden_graph(), RunConfig(num_workers=4, timeline=tl),
        list(range(0, 60, 10)), kind="bc", sizer=StaticSizer(2),
        initiation=DynamicPeakDetect(),
    )
    assert tl.events
    return tl, run.result


def assert_steps_are_trace_objects(tl, res):
    in_trace = {id(s) for s in res.trace.steps}
    assert tl.steps
    assert all(id(s) in in_trace for s in tl.steps)


class _Alternate(LivePolicy):
    """Resize between 4 and 2 workers at every boundary."""

    def decide(self, engine, stats):
        return 2 if engine.num_workers == 4 else 4


class TestCommittedView:
    @pytest.mark.parametrize(
        "name, scenario",
        [("pagerank_recovery", pagerank_recovery_run),
         ("bc_swath", bc_swath_run)],
    )
    def test_golden_bytes(self, name, scenario, tmp_path):
        tl, res = scenario()
        tl.write_json(tmp_path / "tl.json")
        traces.write_json(res.trace, tmp_path / "trace.json")
        assert (tmp_path / "tl.json").read_bytes() == (
            DATA / f"timeline_{name}.json"
        ).read_bytes()
        assert (tmp_path / "trace.json").read_bytes() == (
            DATA / f"trace_{name}.json"
        ).read_bytes()

    def test_golden_csv_bytes(self, tmp_path):
        _, res = pagerank_recovery_run()
        traces.write_csv(res.trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (
            DATA / "trace_pagerank_recovery.csv"
        ).read_bytes()

    @pytest.mark.parametrize("name", ["pagerank_recovery", "bc_swath"])
    def test_read_write_round_trip_is_byte_equal(self, name, tmp_path):
        src = DATA / f"timeline_{name}.json"
        read_timeline(src).write_json(tmp_path / "q.json")
        assert (tmp_path / "q.json").read_bytes() == src.read_bytes()

    def test_sim_steps_are_trace_objects(self):
        tl, res = pagerank_recovery_run()
        assert tl.rolled_back_rows > 0
        assert len(tl.steps) < len(res.trace.steps)  # replayed steps drop
        assert_steps_are_trace_objects(tl, res)

    def test_process_kill_respawn_steps_are_trace_objects(self, small_world):
        tl = RunTimeline()
        engine = ProcessBSPEngine(
            make_job(small_world, tl, checkpoint_interval=3)
        )
        engine.kill_worker_at(4, 1)
        res = engine.run()
        assert res.recoveries and tl.rolled_back_rows > 0
        assert_steps_are_trace_objects(tl, res)

    def test_elastic_steps_are_trace_objects(self, small_world):
        tl = RunTimeline()
        res = LiveElasticEngine(
            make_job(small_world, tl, checkpoint_interval=0), _Alternate()
        ).run()
        assert {s.num_workers for s in tl.steps} == {2, 4}
        assert tl.num_workers == 4
        assert tl.matrix("compute_calls").shape == (len(tl.steps), 4)
        assert_steps_are_trace_objects(tl, res)

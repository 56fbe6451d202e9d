"""Failure + checkpointed recovery must not change extract() output.

The satellite contract: for PageRank and SSSP, a run with an injected
worker failure (and the checkpoint/rollback recovery it triggers) produces
``extract()`` output identical to a failure-free run — on both the
simulated-failure engine (sim) and the real-process engine (process, where
the failure is an actual SIGKILL and recovery restarts a replacement
process).
"""

import os

import numpy as np
import pytest

from repro.algorithms import PageRankProgram, SSSPProgram
from repro.bsp import JobSpec, VertexProgram, run_job, run_job_process
from repro.dist import ProcessBSPEngine

PROGRAMS = {
    "pagerank": lambda: PageRankProgram(8),
    "sssp": lambda: SSSPProgram(source=0),
}


class InPlaceArrayState(VertexProgram):
    """Updates an ndarray vertex state in place every superstep."""

    def __init__(self, supersteps: int) -> None:
        self.supersteps = supersteps

    def init_state(self, vertex_id, graph):
        return np.zeros(2)

    def compute(self, ctx, state, messages):
        state[0] += sum(messages)
        state[1] += 1.0
        if ctx.superstep < self.supersteps:
            ctx.send_to_neighbors(float(ctx.vertex_id % 5 + 1))
        else:
            ctx.vote_to_halt()
        return state

    def payload_nbytes(self, payload):
        return 8

    def state_nbytes(self, state):
        return 16

    def extract(self, vertex_id, state):
        return tuple(state.tolist())


def make_job(graph, program_factory, **kw):
    return JobSpec(
        program=program_factory(), graph=graph, num_workers=4,
        checkpoint_interval=2, **kw,
    )


@pytest.mark.parametrize("app", sorted(PROGRAMS))
@pytest.mark.parametrize("engine", ["sim", "process"])
class TestScheduledFailure:
    def test_recovered_equals_failure_free(self, small_world, app, engine):
        factory = PROGRAMS[app]
        runner = run_job if engine == "sim" else run_job_process
        clean = runner(make_job(small_world, factory))
        failed = runner(
            make_job(small_world, factory, failure_schedule={3: 1})
        )
        assert failed.recoveries, "the scheduled failure must have fired"
        assert failed.recoveries[0].failed_worker == 1
        assert clean.values == failed.values
        # Recovery costs simulated time; it must never be free.
        assert failed.total_time > clean.total_time


class TestKillWorkerAt:
    def test_real_sigkill_recovers_bit_identical(self, small_world):
        clean = run_job(make_job(small_world, PROGRAMS["pagerank"]))
        engine = ProcessBSPEngine(make_job(small_world, PROGRAMS["pagerank"]))
        engine.kill_worker_at(2, 0)
        res = engine.run()
        assert res.recoveries and res.recoveries[0].failed_worker == 0
        assert clean.values == res.values

    @pytest.mark.parametrize("backend", ["pipe", "tcp"])
    def test_restored_array_state_stays_writable(self, small_world, backend):
        """Restore adopts the unpickled checkpoint: its arrays must come
        back writable on every worker, the killed one and the survivor."""
        from repro.net import TcpBSPEngine

        def job():
            return JobSpec(
                program=InPlaceArrayState(9), graph=small_world,
                num_workers=2, checkpoint_interval=3,
            )

        sim = run_job(job())
        engine = (
            ProcessBSPEngine(job()) if backend == "pipe"
            else TcpBSPEngine(job(), auto_daemons=2)
        )
        engine.kill_worker_at(7, 1)
        res = engine.run()
        assert [r.resumed_from for r in res.recoveries] == [6]
        assert res.values == sim.values
        assert res.total_time > sim.total_time

    def test_matches_sim_engine_accounting(self, small_world):
        """The same schedule prices identically on sim and process."""
        schedule = {2: 3}
        sim = run_job(
            make_job(small_world, PROGRAMS["pagerank"], failure_schedule=schedule)
        )
        proc = run_job_process(
            make_job(small_world, PROGRAMS["pagerank"], failure_schedule=schedule)
        )
        assert sim.values == proc.values
        assert sim.total_time == pytest.approx(proc.total_time)
        assert [r.resumed_from for r in sim.recoveries] == [
            r.resumed_from for r in proc.recoveries
        ]


class TestUnplannedDeath:
    def test_mid_compute_exit_recovers(self, small_world, tmp_path):
        """A worker that dies *unscheduled* mid-compute (os._exit, no reply)
        is detected by the liveness monitor and replayed from checkpoint."""
        flag = tmp_path / "died-once"

        class DieOnce(PageRankProgram):
            def compute(self, ctx, state, messages):
                if (
                    ctx.superstep == 3
                    and ctx.vertex_id == 0
                    and not flag.exists()
                ):
                    flag.write_text("x")  # the respawned replacement survives
                    os._exit(1)
                return super().compute(ctx, state, messages)

        clean = run_job(make_job(small_world, PROGRAMS["pagerank"]))
        res = run_job_process(make_job(small_world, lambda: DieOnce(8)))
        assert flag.exists()
        assert res.recoveries
        assert clean.values == res.values

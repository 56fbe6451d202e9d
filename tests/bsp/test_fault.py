"""Checkpointing and coordinated failure recovery."""

import numpy as np
import pytest

from repro.algorithms import PageRankProgram, pagerank_reference
from repro.bsp import JobSpec, run_job


class TestCheckpointing:
    def test_checkpointing_does_not_change_results(self, small_world):
        plain = run_job(
            JobSpec(program=PageRankProgram(10), graph=small_world, num_workers=3)
        )
        ckpt = run_job(
            JobSpec(
                program=PageRankProgram(10), graph=small_world, num_workers=3,
                checkpoint_interval=3,
            )
        )
        assert np.allclose(plain.values_array(), ckpt.values_array())

    def test_checkpointing_costs_time(self, small_world):
        plain = run_job(
            JobSpec(program=PageRankProgram(10), graph=small_world, num_workers=3)
        )
        ckpt = run_job(
            JobSpec(
                program=PageRankProgram(10), graph=small_world, num_workers=3,
                checkpoint_interval=2,
            )
        )
        assert ckpt.total_time > plain.total_time


class TestFailureRecovery:
    def test_recovery_reproduces_exact_results(self, small_world):
        ref = pagerank_reference(small_world, iterations=12)
        res = run_job(
            JobSpec(
                program=PageRankProgram(12), graph=small_world, num_workers=4,
                checkpoint_interval=4, failure_schedule={6: 2},
            )
        )
        assert res.halted
        assert len(res.recoveries) == 1
        assert np.allclose(res.values_array(), ref, atol=1e-6)

    def test_checkpoint_survives_two_rollbacks(self, small_world):
        def job(schedule):
            return JobSpec(
                program=PageRankProgram(12), graph=small_world,
                num_workers=4, checkpoint_interval=4,
                failure_schedule=schedule,
            )

        clean = run_job(job({}))
        once = run_job(job({5: 2}))
        twice = run_job(job({5: 2, 6: 1}))
        assert [r.resumed_from for r in twice.recoveries] == [4, 4]
        assert once.values == clean.values
        assert twice.values == clean.values

    def test_recovery_event_metadata(self, small_world):
        res = run_job(
            JobSpec(
                program=PageRankProgram(12), graph=small_world, num_workers=4,
                checkpoint_interval=4, failure_schedule={6: 2},
            )
        )
        ev = res.recoveries[0]
        assert ev.failed_superstep == 6
        assert ev.failed_worker == 2
        assert ev.resumed_from == 4  # last checkpoint before the failure
        assert ev.recovery_seconds > 0

    def test_failure_before_first_periodic_checkpoint(self, small_world):
        # Rolls back to the initial (superstep 0) checkpoint.
        res = run_job(
            JobSpec(
                program=PageRankProgram(8), graph=small_world, num_workers=3,
                checkpoint_interval=5, failure_schedule={2: 0},
            )
        )
        assert res.recoveries[0].resumed_from == 0
        ref = pagerank_reference(small_world, iterations=8)
        assert np.allclose(res.values_array(), ref, atol=1e-6)

    def test_multiple_failures(self, small_world):
        res = run_job(
            JobSpec(
                program=PageRankProgram(12), graph=small_world, num_workers=4,
                checkpoint_interval=3, failure_schedule={4: 1, 9: 3},
            )
        )
        assert len(res.recoveries) == 2
        ref = pagerank_reference(small_world, iterations=12)
        assert np.allclose(res.values_array(), ref, atol=1e-6)

    def test_recovery_costs_time(self, small_world):
        base = run_job(
            JobSpec(
                program=PageRankProgram(10), graph=small_world, num_workers=3,
                checkpoint_interval=4,
            )
        )
        failed = run_job(
            JobSpec(
                program=PageRankProgram(10), graph=small_world, num_workers=3,
                checkpoint_interval=4, failure_schedule={6: 1},
            )
        )
        assert failed.total_time > base.total_time

    def test_unknown_worker_in_schedule_raises(self, small_world):
        with pytest.raises(ValueError, match="unknown worker"):
            run_job(
                JobSpec(
                    program=PageRankProgram(5), graph=small_world, num_workers=3,
                    checkpoint_interval=2, failure_schedule={1: 99},
                )
            )

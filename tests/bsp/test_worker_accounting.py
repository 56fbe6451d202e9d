"""Worker-level resource accounting: routing, buffers, memory footprint."""

import numpy as np
import pytest

from repro.bsp import BSPEngine, JobSpec, VertexProgram, run_job
from repro.cloud.costmodel import PerfModel
from repro.graph import generators as gen


class Broadcaster(VertexProgram):
    """Every vertex sends one fixed-size message per neighbor in step 0."""

    def compute(self, ctx, state, messages):
        if ctx.superstep == 0:
            ctx.send_to_neighbors("payload")
        ctx.vote_to_halt()
        return state

    def payload_nbytes(self, payload):
        return 100


class TestRouting:
    def test_local_remote_split_matches_partition(self, ring10):
        from repro.partition import ModuloPartitioner

        # Modulo on a ring: every edge crosses workers when k=2.
        res = run_job(
            JobSpec(
                program=Broadcaster(), graph=ring10, num_workers=2,
                partitioner=ModuloPartitioner(),
            )
        )
        step0 = res.trace.steps[0]
        assert step0.remote_messages == 20
        assert sum(w.msgs_out_local for w in step0.workers) == 0

    def test_single_worker_all_local(self, ring10):
        res = run_job(JobSpec(program=Broadcaster(), graph=ring10, num_workers=1))
        step0 = res.trace.steps[0]
        assert step0.remote_messages == 0
        assert step0.workers[0].msgs_out_local == 20

    def test_bytes_out_use_wire_size(self, ring10):
        from repro.partition import ModuloPartitioner

        model = PerfModel()
        res = run_job(
            JobSpec(
                program=Broadcaster(), graph=ring10, num_workers=2,
                partitioner=ModuloPartitioner(), perf_model=model,
            )
        )
        step0 = res.trace.steps[0]
        total_out = sum(w.bytes_out for w in step0.workers)
        assert total_out == 20 * model.message_wire_bytes(100)

    def test_bytes_in_equal_bytes_out_cluster_wide(self, small_world):
        res = run_job(JobSpec(program=Broadcaster(), graph=small_world, num_workers=4))
        step0 = res.trace.steps[0]
        assert sum(w.bytes_in for w in step0.workers) == pytest.approx(
            sum(w.bytes_out for w in step0.workers)
        )

    def test_peer_counts_bounded_by_fleet(self, small_world):
        res = run_job(JobSpec(program=Broadcaster(), graph=small_world, num_workers=4))
        for s in res.trace:
            for w in s.workers:
                assert 0 <= w.peers_out <= 3
                assert 0 <= w.peers_in <= 3


class TestMemoryAccounting:
    def test_footprint_includes_buffered_messages(self, ring10):
        res = run_job(JobSpec(program=Broadcaster(), graph=ring10, num_workers=2))
        # Step 0 buffers 20 messages for step 1; step 1 buffers none.
        assert res.trace.steps[0].peak_memory > res.trace.steps[1].peak_memory

    def test_state_growth_is_tracked(self):
        class Accumulator(VertexProgram):
            def init_state(self, v, g):
                return []

            def compute(self, ctx, state, messages):
                state.extend(["x"] * 50)
                if ctx.superstep < 3:
                    ctx.send(ctx.vertex_id, 1)
                ctx.vote_to_halt()
                return state

            def state_nbytes(self, state):
                return 16 + len(state)

        g = gen.ring(6)
        res = run_job(JobSpec(program=Accumulator(), graph=g, num_workers=2))
        mems = res.trace.series_peak_memory()
        assert np.all(np.diff(mems[:3]) > 0)  # grows while accumulating

    def test_spill_penalty_applied_when_tiny_memory(self, small_world):
        from repro.cloud.specs import scaled_large

        ample = run_job(
            JobSpec(
                program=Broadcaster(), graph=small_world, num_workers=2,
                vm_spec=scaled_large(1 << 40),
            )
        )
        tiny = run_job(
            JobSpec(
                program=Broadcaster(), graph=small_world, num_workers=2,
                vm_spec=scaled_large(10_000),
                perf_model=PerfModel(restart_overflow_ratio=1e9),
            )
        )
        assert tiny.total_time > ample.total_time
        assert tiny.trace.steps[0].workers[0].mem_slowdown > 1.0

    def test_restart_recorded_and_charged(self, small_world):
        from repro.cloud.specs import scaled_large

        model = PerfModel(restart_overflow_ratio=0.01, restart_time=500.0)
        res = run_job(
            JobSpec(
                program=Broadcaster(), graph=small_world, num_workers=2,
                vm_spec=scaled_large(10_000), perf_model=model,
            )
        )
        assert res.trace.num_restarts > 0
        assert res.total_time > 500.0


class TestStateBytesEstimator:
    def test_default_estimates(self):
        from repro.bsp.api import _estimate_nbytes

        assert _estimate_nbytes(None) == 0
        assert _estimate_nbytes(3) == 8
        assert _estimate_nbytes(3.5) == 8
        assert _estimate_nbytes("abcd") == 4
        assert _estimate_nbytes(np.zeros(10)) == 80
        assert _estimate_nbytes((1, 2)) == 16 + 2 * 16
        assert _estimate_nbytes({"a": 1}) > 0

    def test_deep_nesting_capped(self):
        from repro.bsp.api import _estimate_nbytes

        deep = [[[[[1]]]]]
        assert _estimate_nbytes(deep) < 1000


# ----------------------------------------------------------------------
# The per-vertex message plane: batched emit, bucket delivery, counters
# ----------------------------------------------------------------------
class SizeSpy(VertexProgram):
    """Vertex 0 sends one message along each out-edge in step 0; every
    payload_nbytes call is recorded."""

    def __init__(self):
        self.sized = []

    def compute(self, ctx, state, messages):
        if ctx.superstep == 0 and ctx.vertex_id == 0:
            ctx.send_to_neighbors(7)
        ctx.vote_to_halt()
        return state

    def payload_nbytes(self, payload):
        self.sized.append(payload)
        return 8


class SumBroadcaster(Broadcaster):
    """Broadcaster with a numeric payload and a sum combiner."""

    def __init__(self):
        from repro.bsp.combiners import SumCombiner

        self.combiner = SumCombiner()

    def compute(self, ctx, state, messages):
        if ctx.superstep == 0:
            ctx.send_to_neighbors(1.0)
        ctx.vote_to_halt()
        return state


def _closed_forms(graph, owner, num_workers, combined):
    """Per-worker (local, remote, received) message counts of one
    send-to-every-neighbor superstep, and the per-worker queue depth."""
    src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    dst = np.asarray(graph.indices)
    pairs = set(zip(owner[src].tolist(), dst.tolist()))  # (src worker, dst)
    local = np.zeros(num_workers, dtype=int)
    remote = np.zeros(num_workers, dtype=int)
    received = np.zeros(num_workers, dtype=int)
    if combined:
        for sw, d in pairs:
            if owner[d] == sw:
                local[sw] += 1
            else:
                remote[sw] += 1
                received[owner[d]] += 1
        depth = np.bincount(owner[np.unique(dst)], minlength=num_workers)
    else:
        same = owner[src] == owner[dst]
        local = np.bincount(owner[src][same], minlength=num_workers)
        remote = np.bincount(owner[src][~same], minlength=num_workers)
        received = np.bincount(owner[dst][~same], minlength=num_workers)
        depth = np.bincount(owner[dst], minlength=num_workers)
    return local, remote, received, depth


class TestMessagePlane:
    def test_neighbor_send_sizes_payload_once(self, star8):
        spy = SizeSpy()
        res = run_job(JobSpec(program=spy, graph=star8, num_workers=1))
        assert res.trace.steps[0].workers[0].msgs_out_local == 7
        assert spy.sized == [7]

    def test_remote_delivery_sizes_each_payload_once(self, star8):
        from repro.partition import ModuloPartitioner

        spy = SizeSpy()
        res = run_job(JobSpec(
            program=spy, graph=star8, num_workers=2,
            partitioner=ModuloPartitioner(),
        ))
        remote = res.trace.steps[0].remote_messages
        assert remote == 4  # leaves 1, 3, 5, 7 live on worker 1
        # one sizing for the batch at emit, one per payload at delivery
        assert len(spy.sized) == 1 + remote

    @pytest.mark.parametrize("program", [Broadcaster, SumBroadcaster])
    def test_counts_and_bytes_match_closed_forms(self, small_world, program):
        num_workers = 4
        model = PerfModel()
        eng = BSPEngine(JobSpec(
            program=program(), graph=small_world, num_workers=num_workers,
            perf_model=model,
        ))
        owner = np.asarray(eng.partition.assignment)
        res = eng.run()
        local, remote, received, depth = _closed_forms(
            small_world, owner, num_workers,
            combined=program is SumBroadcaster,
        )
        wire = model.message_wire_bytes(100)
        step0 = res.trace.steps[0]
        for ws in step0.workers:
            w = ws.worker
            assert ws.msgs_out_local == local[w]
            assert ws.msgs_out_remote == remote[w]
            assert ws.bytes_out == remote[w] * wire
            assert ws.bytes_in == received[w] * wire
            assert ws.queue_depth == depth[w]

    def test_unknown_destination_through_send(self, ring10):
        class BadSend(VertexProgram):
            def compute(self, ctx, state, messages):
                ctx.send(ctx.num_vertices, 1)
                return state

        with pytest.raises(ValueError, match="message to unknown vertex 10"):
            run_job(JobSpec(program=BadSend(), graph=ring10, num_workers=2))

    def test_unknown_destination_through_overlay_edge(self, ring10):
        eng = BSPEngine(JobSpec(
            program=Broadcaster(), graph=ring10, num_workers=1,
        ))
        w = eng.workers[0]
        w.import_vertex(0, None, False, [], overlay=[1, 12])
        with pytest.raises(ValueError, match="message to unknown vertex 12"):
            eng.run()

    def test_failed_batch_counts_what_it_buffered(self, ring10):
        from repro.partition import ModuloPartitioner

        model = PerfModel()
        eng = BSPEngine(JobSpec(
            program=Broadcaster(), graph=ring10, num_workers=2,
            partitioner=ModuloPartitioner(), perf_model=model,
        ))
        w = eng.workers[0]
        w.begin_superstep(0, {})
        with pytest.raises(ValueError, match="message to unknown vertex -1"):
            w.emit([2, 3, -1, 4], "payload")
        # 2 is local, 3 remote; nothing after the bad destination
        assert w.in_next == {2: ["payload"]}
        assert w.out_remote == {1: {3: ["payload"]}}
        assert w.buffered_message_count() == 1
        assert w.in_next_payload_bytes == 100
        assert w.out_remote_wire_bytes == model.message_wire_bytes(100)
        assert w.stats.msgs_out_local == w.stats.msgs_out_remote == 1

    def test_reassigned_owner_reroutes_next_emit(self, ring10):
        eng = BSPEngine(JobSpec(
            program=Broadcaster(), graph=ring10, num_workers=2,
        ))
        w = eng.workers[0]
        dst = next(
            v for v in range(10) if eng.partition.assignment[v] == 0
        )
        w.begin_superstep(0, {})
        w.emit([dst], "a")
        assert dst in w.in_next and not w.out_remote
        moved = np.asarray(eng.partition.assignment).copy()
        moved[dst] = 1
        w.assignment = moved
        w.emit([dst], "b")
        assert w.out_remote == {1: {dst: ["b"]}}
        assert w.in_next[dst] == ["a"]
        assert w.stats.msgs_out_local == w.stats.msgs_out_remote == 1


class TestQueueDepthCounter:
    @pytest.mark.parametrize("combined", [False, True])
    def test_running_count_matches_recount(self, small_world, combined):
        import copy
        import random

        program = SumBroadcaster() if combined else Broadcaster()
        eng = BSPEngine(JobSpec(
            program=program, graph=small_world, num_workers=2,
        ))
        a, b = eng.workers
        n = small_world.num_vertices
        rng = random.Random(5)
        snap = None

        def recount(w):
            return sum(len(box) for box in w.in_next.values())

        for step in range(600):
            op = rng.randrange(7)
            w = a if rng.random() < 0.5 else b
            if op == 0:
                w.emit([rng.randrange(n) for _ in range(rng.randrange(4))], 1.0)
            elif op == 1:
                other = b if w is a else a
                for bucket in other.out_remote.get(w.worker_id, {}).items():
                    w.deliver_remote([bucket])
                other.out_remote.pop(w.worker_id, None)
            elif op == 2:
                hosted = [v for v in w.states]
                w.inject(rng.choice(hosted), 1.0)
            elif op == 3 and len(w.states) > 1:
                other = b if w is a else a
                v = rng.choice(sorted(w.states))
                other.import_vertex(v, *w.export_vertex(v))
            elif op == 4:
                snap = (w, copy.deepcopy(w.snapshot()))
            elif op == 5 and snap is not None and snap[0] is w:
                w.restore(copy.deepcopy(snap[1]))
            elif op == 6 and rng.random() < 0.25:
                w.begin_superstep(step, {})
            assert a.buffered_message_count() == recount(a)
            assert b.buffered_message_count() == recount(b)

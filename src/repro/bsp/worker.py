"""Partition worker: owns a share of vertices and runs their compute().

Mirrors Pregel.NET's partition-worker role (§III): it loads the vertices of
its partition, calls the user ``compute()`` on each active vertex per
superstep, delivers local messages through in-memory buffers, and batches
remote messages per destination worker for bulk transfer.  The engine plays
the job-manager role and moves the batched buffers between workers at the
end of each superstep.

All resource accounting (operation counts, buffered bytes) happens here with
*true* counts; converting them to simulated seconds is the engine's job.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from ..cloud.costmodel import PerfModel
from ..graph.csr import CSRGraph
from .api import VertexContext, VertexProgram
from .superstep import WorkerStepStats

__all__ = ["PartitionWorker"]


class PartitionWorker:
    """One simulated worker VM's slice of the BSP computation."""

    def __init__(
        self,
        worker_id: int,
        graph: CSRGraph,
        vertex_ids: np.ndarray,
        program: VertexProgram,
        model: PerfModel,
        assignment: np.ndarray,
        initially_active: bool = True,
        metrics: Any = None,
    ) -> None:
        self.worker_id = worker_id
        self.graph = graph
        self.program = program
        self.model = model
        self.assignment = assignment
        self.vertex_ids = np.sort(np.asarray(vertex_ids, dtype=np.int64))

        # Per-vertex program state and accounting.
        self.states: dict[int, Any] = {}
        self._state_bytes: dict[int, int] = {}
        self.total_state_bytes = 0
        for v in self.vertex_ids:
            vi = int(v)
            st = program.init_state(vi, graph)
            self.states[vi] = st
            nb = int(program.state_nbytes(st))
            self._state_bytes[vi] = nb
            self.total_state_bytes += nb

        self.halted: dict[int, bool] = {
            int(v): not initially_active for v in self.vertex_ids
        }

        # Message buffers: current superstep's input and next superstep's.
        self.in_cur: dict[int, list] = {}
        self.in_next: dict[int, list] = {}
        self.in_next_payload_bytes = 0.0
        self.in_next_count = 0  # messages in in_next (post-combine)

        # Remote out buffers for the running superstep:
        # dst_worker -> dst_vertex -> list (or combined single payload).
        self.out_remote: dict[int, dict[int, list]] = {}
        self.out_remote_wire_bytes = 0.0

        # Fixed footprint of the hosted partition: CSR share + bookkeeping.
        arcs_hosted = int(np.diff(graph.indptr)[self.vertex_ids].sum()) if len(
            self.vertex_ids
        ) else 0
        self.graph_bytes = (
            arcs_hosted * 6 + len(self.vertex_ids) * model.vertex_overhead_bytes
        )

        # Aggregator plumbing (wired by the engine each superstep).
        self._agg_partials: dict[str, Any] = {}
        self._agg_previous: dict[str, Any] = {}
        self._aggregators = program.aggregators()

        # Topology-mutation overlay (Pregel's edge mutations, self-scope):
        # vertices with mutated out-edges get an explicit neighbor list here;
        # mutations requested during superstep s become visible in s+1.
        self._overlay: dict[int, list[int]] = {}
        self._pending_mutations: list[tuple[int, str, int]] = []
        self.overlay_bytes = 0
        # Out-neighbor lists of hosted vertices as Python ints, built on
        # first send: the emit loop then indexes lists, never NumPy.
        self._nbrs: dict[int, list[int]] = {}

        self._ctx = VertexContext()
        self.stats = WorkerStepStats(worker=worker_id)

        # Per-worker instruments (optional registry, resolved once here so
        # run_compute() pays two counter bumps per superstep, not per vertex).
        if metrics is not None:
            wl = str(worker_id)
            self._m_compute_calls = metrics.counter(
                "bsp_worker_compute_calls_total",
                help="compute() invocations per worker", worker=wl,
            )
            self._m_msgs_in = metrics.counter(
                "bsp_worker_messages_in_total",
                help="Messages drained by compute() per worker", worker=wl,
            )
        else:
            self._m_compute_calls = None
            self._m_msgs_in = None

    @property
    def assignment(self) -> np.ndarray:
        """Vertex -> worker map (shared with the engine, read-only here)."""
        return self._assignment

    @assignment.setter
    def assignment(self, assignment: np.ndarray) -> None:
        # Repartitioning reassigns this; the routing list follows.
        self._assignment = assignment
        self._owner: list[int] = np.asarray(assignment).tolist()

    # ------------------------------------------------------------------
    # Superstep lifecycle
    # ------------------------------------------------------------------
    def begin_superstep(self, superstep: int, agg_previous: dict[str, Any]) -> None:
        """Rotate message buffers and reset per-step accounting."""
        self._apply_mutations()
        self.in_cur = self.in_next
        self.in_next = {}
        self.in_next_payload_bytes = 0.0
        self.in_next_count = 0
        self.out_remote = {}
        self.out_remote_wire_bytes = 0.0
        self._agg_previous = agg_previous
        self._agg_partials = {
            name: agg.identity() for name, agg in self._aggregators.items()
        }
        self.stats = WorkerStepStats(worker=self.worker_id)
        self._superstep = superstep

    def compute_set(self) -> list[int]:
        """Vertices that must run compute() this superstep (sorted)."""
        pending = set(self.in_cur)
        pending.update(v for v, h in self.halted.items() if not h)
        return sorted(pending)

    def run_compute(self) -> None:
        """Run compute() for every active/messaged vertex of the partition."""
        compute = self.program.compute
        state_nbytes = self.program.state_nbytes
        states = self.states
        state_bytes = self._state_bytes
        halted = self.halted
        in_cur = self.in_cur
        ctx = self._ctx
        ctx._worker = self
        ctx._superstep = self._superstep
        total_state_bytes = self.total_state_bytes
        calls = msgs_in = 0
        for v in self.compute_set():
            msgs = in_cur.pop(v, ())
            ctx._vertex = v
            ctx._halted_flag = False
            new_state = compute(ctx, states[v], msgs)
            states[v] = new_state
            nb = int(state_nbytes(new_state))
            total_state_bytes += nb - state_bytes[v]
            state_bytes[v] = nb
            halted[v] = ctx._halted_flag
            calls += 1
            msgs_in += len(msgs)
        self.total_state_bytes = total_state_bytes
        self.in_cur = {}
        self.stats.compute_calls += calls
        self.stats.msgs_in += msgs_in
        if self._m_compute_calls is not None:
            self._m_compute_calls.inc(self.stats.compute_calls)
            self._m_msgs_in.inc(self.stats.msgs_in)

    # ------------------------------------------------------------------
    # Topology mutation (Pregel edge mutations, self-scope)
    # ------------------------------------------------------------------
    def effective_neighbors(self, v: int):
        """Out-neighbors of ``v`` including applied mutations."""
        if v in self._overlay:
            return np.asarray(self._overlay[v], dtype=np.int64)
        return self.graph.neighbors(v)

    def neighbor_list(self, v: int) -> list[int]:
        """Out-neighbors of hosted vertex ``v`` as a list of ints (the
        overlay's own list for mutated vertices; do not modify)."""
        lst = self._overlay.get(v)
        if lst is None:
            lst = self._nbrs.get(v)
            if lst is None:
                lst = self._nbrs[v] = self.graph.neighbors(v).tolist()
        return lst

    def effective_out_degree(self, v: int) -> int:
        if v in self._overlay:
            return len(self._overlay[v])
        return self.graph.out_degree(v)

    def effective_neighbor_weights(self, v: int):
        """Out-edge weights aligned with :meth:`effective_neighbors`.

        Mutated vertices report unit weights (edge mutations carry no
        weight; a weighted-mutation API is out of scope).
        """
        if v in self._overlay:
            return np.ones(len(self._overlay[v]))
        return self.graph.neighbor_weights(v)

    def request_mutation(self, v: int, op: str, dst: int) -> None:
        """Queue an out-edge mutation for ``v`` (applied next superstep)."""
        if op not in ("add", "remove"):
            raise ValueError(f"unknown mutation op {op!r}")
        if not 0 <= dst < self.graph.num_vertices:
            raise ValueError(f"mutation targets unknown vertex {dst}")
        self._pending_mutations.append((v, op, dst))

    def _apply_mutations(self) -> None:
        if not self._pending_mutations:
            return
        for v, op, dst in self._pending_mutations:
            lst = self._overlay.get(v)
            if lst is None:
                lst = list(int(u) for u in self.graph.neighbors(v))
                self._overlay[v] = lst
                self.overlay_bytes += 16 + 8 * len(lst)
            if op == "add":
                lst.append(dst)
                self.overlay_bytes += 8
            else:
                try:
                    lst.remove(dst)
                    self.overlay_bytes -= 8
                except ValueError:
                    pass  # removing a non-existent edge is a no-op (Pregel)
        self._pending_mutations = []

    # ------------------------------------------------------------------
    # Message routing (called from VertexContext.send/send_to_neighbors)
    # ------------------------------------------------------------------
    def emit(self, dsts: Sequence[int], payload: Any) -> None:
        """Send one ``payload`` to each vertex of ``dsts``, in order.

        Local messages go to the next superstep's input buffer, remote ones
        to the bucket of their destination worker.  With a combiner, a
        message to a vertex that already has one buffered folds into it.
        The payload is sized once for the whole batch.  An unknown
        destination raises ``ValueError``; the messages routed before it
        stay buffered and counted, as if each had been sent on its own.
        """
        owner = self._owner
        n = len(owner)
        me = self.worker_id
        in_next = self.in_next
        out_remote = self.out_remote
        combiner = self.program.combiner
        combine = combiner.combine if combiner is not None else None
        # Counters track *post-combine* messages — what is actually buffered
        # and transferred, the quantity the paper plots; combining folds an
        # emit into an existing buffered message at no extra cost.
        local = remote = 0
        try:
            for dst in dsts:
                if not 0 <= dst < n:
                    raise ValueError(f"message to unknown vertex {dst}")
                dw = owner[dst]
                if dw == me:
                    box = in_next.get(dst)
                    if box is None:
                        in_next[dst] = [payload]
                        local += 1
                    elif combine is not None and box:
                        box[0] = combine(box[0], payload)
                    else:
                        box.append(payload)
                        local += 1
                else:
                    bucket = out_remote.get(dw)
                    if bucket is None:
                        bucket = out_remote[dw] = {}
                    box = bucket.get(dst)
                    if box is None:
                        bucket[dst] = [payload]
                        remote += 1
                    elif combine is not None:
                        box[0] = combine(box[0], payload)
                    else:
                        box.append(payload)
                        remote += 1
        finally:
            if local or remote:
                size = self.program.payload_nbytes(payload)
                stats = self.stats
                if local:
                    self.in_next_payload_bytes += size * local
                    self.in_next_count += local
                    stats.msgs_out_local += local
                if remote:
                    self.out_remote_wire_bytes += (
                        self.model.message_wire_bytes(size) * remote
                    )
                    stats.msgs_out_remote += remote

    def deliver_remote(
        self, items: Iterable[tuple[int, list]]
    ) -> tuple[int, float]:
        """Accept one source worker's bucket of messages for this worker.

        ``items`` are ``(dst, payloads)`` pairs in emission order.  With a
        combiner, arriving payloads fold into the buffered one.  Returns
        the messages received and their wire bytes (for the engine's
        traffic matrix).
        """
        combiner = self.program.combiner
        combine = combiner.combine if combiner is not None else None
        payload_nbytes = self.program.payload_nbytes
        wire_bytes = self.model.message_wire_bytes
        in_next = self.in_next
        messages = appended = 0
        appended_bytes = 0
        wire = 0.0
        for dst, payloads in items:
            box = in_next.get(dst)
            if box is None:
                box = in_next[dst] = []
            for p in payloads:
                nb = payload_nbytes(p)
                wire += wire_bytes(nb)
                if combine is not None and box:
                    box[0] = combine(box[0], p)
                else:
                    box.append(p)
                    appended += 1
                    appended_bytes += nb
            messages += len(payloads)
        self.in_next_payload_bytes += appended_bytes
        self.in_next_count += appended
        return messages, wire

    def inject(self, dst: int, payload: Any) -> None:
        """Control-plane activation message (job-manager originated).

        Wakes ``dst`` next superstep; carries no data-plane cost (the paper's
        manager uses the cheap Azure queues for control traffic).
        """
        self.in_next.setdefault(dst, []).append(payload)
        self.in_next_count += 1

    # ------------------------------------------------------------------
    # Aggregators
    # ------------------------------------------------------------------
    def aggregate(self, name: str, value: Any) -> None:
        if name not in self._aggregators:
            raise KeyError(f"unknown aggregator {name!r}")
        agg = self._aggregators[name]
        self._agg_partials[name] = agg.reduce(self._agg_partials[name], value)

    def aggregated(self, name: str) -> Any:
        if name not in self._aggregators:
            raise KeyError(f"unknown aggregator {name!r}")
        return self._agg_previous.get(name, self._aggregators[name].identity())

    # ------------------------------------------------------------------
    # Introspection used by the engine
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Vertices that have not voted to halt."""
        return sum(1 for h in self.halted.values() if not h)

    @property
    def has_buffered_messages(self) -> bool:
        return bool(self.in_next)

    def buffered_message_count(self) -> int:
        """Messages buffered for the next superstep (post-combine)."""
        return self.in_next_count

    def buffered_message_bytes(self) -> float:
        """Wire-equivalent bytes of messages buffered for the next superstep."""
        m = self.model
        return (
            self.in_next_payload_bytes
            + self.buffered_message_count() * m.msg_header_bytes
        )

    def memory_footprint(self) -> float:
        """Peak resident bytes attributed to this superstep.

        Partition share + vertex state + buffered incoming messages for the
        next superstep (expansion-adjusted) + the transient sender-side
        remote buffers.  Under disk buffering (Giraph/Hama-style, §II) the
        buffered messages live on disk, not in memory.
        """
        m = self.model
        if m.disk_buffering or m.mapreduce_iteration:
            buffered = 0.0
        else:
            buffered = self.buffered_message_bytes() * m.msg_memory_expansion
        return (
            self.graph_bytes
            + self.total_state_bytes
            + buffered
            + self.out_remote_wire_bytes
            + self.overlay_bytes
        )

    # ------------------------------------------------------------------
    # Vertex migration (live elastic scaling support)
    # ------------------------------------------------------------------
    def export_vertex(self, v: int) -> tuple:
        """Detach a vertex's live data for migration to another worker."""
        if v not in self.states:
            raise KeyError(f"vertex {v} not hosted by worker {self.worker_id}")
        state = self.states.pop(v)
        nb = self._state_bytes.pop(v)
        self.total_state_bytes -= nb
        halted = self.halted.pop(v)
        pending = self.in_next.pop(v, [])
        self.in_next_count -= len(pending)
        for p in pending:
            self.in_next_payload_bytes -= self.program.payload_nbytes(p)
        overlay = self._overlay.pop(v, None)
        if overlay is not None:
            self.overlay_bytes -= 16 + 8 * len(overlay)
        return state, halted, pending, overlay

    def refresh_partition_footprint(self) -> None:
        """Recompute the hosted-partition memory share after migrations."""
        hosted = np.array(sorted(self.states.keys()), dtype=np.int64)
        arcs_hosted = (
            int(np.diff(self.graph.indptr)[hosted].sum()) if len(hosted) else 0
        )
        self.graph_bytes = (
            arcs_hosted * 6 + len(hosted) * self.model.vertex_overhead_bytes
        )

    def import_vertex(
        self, v: int, state, halted: bool, pending: list, overlay=None
    ) -> None:
        """Adopt a migrated vertex (replacing any freshly-initialized state)."""
        if v in self.states:
            self.total_state_bytes -= self._state_bytes[v]
        self.states[v] = state
        nb = int(self.program.state_nbytes(state))
        self._state_bytes[v] = nb
        self.total_state_bytes += nb
        self.halted[v] = halted
        if pending:
            box = self.in_next.setdefault(v, [])
            box.extend(pending)
            self.in_next_count += len(pending)
            for p in pending:
                self.in_next_payload_bytes += self.program.payload_nbytes(p)
        if overlay is not None:
            self._overlay[v] = overlay
            self.overlay_bytes += 16 + 8 * len(overlay)

    # ------------------------------------------------------------------
    # Snapshot / restore (checkpointing support)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The checkpointed part of the worker, by reference.

        The caller makes the one copy a checkpoint needs: a deep copy in
        the in-process engine, the frame pickle on the wire backends.
        """
        return {
            "states": self.states,
            "state_bytes": self._state_bytes,
            "total_state_bytes": self.total_state_bytes,
            "halted": self.halted,
            "in_next": self.in_next,
            "in_next_payload_bytes": self.in_next_payload_bytes,
            "overlay": self._overlay,
            "overlay_bytes": self.overlay_bytes,
            "pending_mutations": self._pending_mutations,
        }

    def restore(self, snap: dict) -> None:
        """Adopt a snapshot's objects as the live state (no copy: the
        caller hands over a private copy)."""
        self.states = snap["states"]
        self._state_bytes = snap["state_bytes"]
        self.total_state_bytes = snap["total_state_bytes"]
        self.halted = snap["halted"]
        self.in_next = snap["in_next"]
        self.in_next_payload_bytes = snap["in_next_payload_bytes"]
        self.in_next_count = sum(map(len, self.in_next.values()))
        self._overlay = snap["overlay"]
        self.overlay_bytes = snap["overlay_bytes"]
        self._pending_mutations = snap["pending_mutations"]
        self.in_cur = {}
        self.out_remote = {}
        self.out_remote_wire_bytes = 0.0

"""The BSP engine: job manager + superstep loop over partition workers.

Plays Pregel.NET's job-manager role (§III): it builds the worker fleet from
the job's partition, drives supersteps through the control-plane queues,
moves bulk message buffers between workers at superstep boundaries, merges
aggregators at the barrier, detects the halting condition (all vertices
voted to halt and no messages in flight), and accounts simulated time and
cost for every superstep via the cloud models.

Observers (e.g. the swath controller, elastic policies' probes) are invoked
at every superstep boundary with the fresh :class:`SuperstepStats`; they may
inject control-plane activation messages and keep the job alive via
``has_pending_work()`` even when all vertices are momentarily halted.
"""

from __future__ import annotations

import copy
from time import perf_counter
from typing import Any

import numpy as np

from ..cloud.billing import BillingMeter
from ..cloud.costmeter import attribute_cost
from ..cloud.memorymodel import MemoryModel
from ..cloud.network import NetworkModel, TrafficSummary
from ..cloud.services import QueueService
from .api import MasterContext
from .job import JobResult, JobSpec, RecoveryEvent
from .superstep import JobTrace, SuperstepStats
from .worker import PartitionWorker

__all__ = ["BSPEngine", "SuperstepObserver", "run_job"]


class SuperstepObserver:
    """Hook interface invoked at every superstep boundary."""

    def on_job_start(self, engine: "BSPEngine") -> None:
        """Called once before superstep 0."""

    def on_superstep_end(self, engine: "BSPEngine", stats: SuperstepStats) -> None:
        """Called after each superstep's stats are final; may inject
        messages via :meth:`BSPEngine.inject_messages`."""

    def has_pending_work(self) -> bool:
        """True while the observer still plans to inject work."""
        return False

    def on_job_end(self, engine: "BSPEngine", result: "JobResult") -> None:
        """Called once after the halting condition, with the final result."""


class BSPEngine:
    """Executes one :class:`~repro.bsp.job.JobSpec` to completion."""

    def __init__(self, job: JobSpec) -> None:
        self.job = job
        self.graph = job.graph
        self.model = job.perf_model
        self.vm_spec = job.vm_spec
        self.partition = job.resolve_partition()
        self.num_workers = job.num_workers
        self.network = NetworkModel(self.vm_spec, self.model)
        self.memory = MemoryModel(self.vm_spec, self.model)
        self.queues = QueueService()  # control plane: step + barrier queues
        self.meter = BillingMeter()
        self.trace = JobTrace()
        self.superstep = 0
        self.sim_time = 0.0
        self.recoveries: list[RecoveryEvent] = []
        self._failure_schedule = dict(job.failure_schedule)
        self._agg_values: dict[str, Any] = {}
        self._aggregators = job.program.aggregators()
        self._master_halt = False
        self._injected_count = 0
        # Multi-tenant noise: per-(worker, superstep) busy-time wobble,
        # deterministic for a given jitter_seed (off by default).
        self._jitter_rng = (
            np.random.default_rng(self.model.jitter_seed)
            if self.model.jitter > 0
            else None
        )
        self._observers: list[SuperstepObserver] = list(job.observers)
        # Observability sinks (all optional; every instrumentation site is
        # guarded by an `is None` check so unobserved runs pay ~nothing).
        self.tracer = job.tracer
        self.metrics = job.metrics
        self.timeline = job.timeline
        self.flight = job.flight
        if self.tracer is not None and self.flight is not None:
            # Spans echo into the flight ring as span-open/span-close
            # events, so the crash tail shows which phase was in flight.
            self.tracer.flight = self.flight
        self._em = (
            _EngineInstruments(self.metrics) if self.metrics is not None else None
        )

        active_ids = job.initial_active_ids()
        assignment = self.partition.assignment
        self.workers: list[PartitionWorker] = []
        for w in range(self.num_workers):
            vids = self.partition.vertices_of(w)
            worker = PartitionWorker(
                worker_id=w,
                graph=self.graph,
                vertex_ids=vids,
                program=job.program,
                model=self.model,
                assignment=assignment,
                initially_active=active_ids is None,
                metrics=self.metrics,
            )
            self.workers.append(worker)
        if active_ids is not None and len(active_ids):
            for v in active_ids:
                self.workers[int(assignment[v])].halted[int(v)] = False

        for dst, payload in job.initial_messages:
            self.inject_message(int(dst), payload)

        self._checkpoint: dict | None = None

    # ------------------------------------------------------------------
    # Control-plane message injection (job-manager originated)
    # ------------------------------------------------------------------
    def inject_message(self, dst: int, payload: Any) -> None:
        """Queue an activation message for ``dst`` (delivered next superstep)."""
        if not 0 <= dst < self.graph.num_vertices:
            raise ValueError(f"inject to unknown vertex {dst}")
        w = int(self.partition.assignment[dst])
        self.workers[w].inject(dst, payload)
        self._injected_count += 1

    def inject_messages(self, pairs) -> None:
        for dst, payload in pairs:
            self.inject_message(int(dst), payload)

    # ------------------------------------------------------------------
    @property
    def active_vertices(self) -> int:
        return sum(w.active_count for w in self.workers)

    @property
    def buffered_messages(self) -> bool:
        return any(w.has_buffered_messages for w in self.workers)

    def aggregated(self, name: str) -> Any:
        """Current (last barrier's) value of a named aggregator."""
        if name not in self._aggregators:
            raise KeyError(f"unknown aggregator {name!r}")
        return self._agg_values.get(name, self._aggregators[name].identity())

    def worker_liveness(self) -> list[dict]:
        """Per-worker liveness for ``/healthz`` (safe from other threads).

        In-process workers cannot die independently of the engine, so the
        base answer is "all alive"; :class:`~repro.dist.engine.ProcessBSPEngine`
        overrides this with real process liveness and heartbeat ages.
        """
        return [
            {"worker": w, "alive": True} for w in range(self.num_workers)
        ]

    # ------------------------------------------------------------------
    def run(self) -> JobResult:
        """Drive supersteps until the halting condition or the step cap.

        Any abnormal end — uncaught compute exception, worker failure past
        recovery, ``KeyboardInterrupt`` — is captured (flight-recorder
        ``abort`` event + postmortem bundle when ``job.postmortem`` is
        attached) before the exception propagates.
        """
        try:
            return self._run_loop()
        except (Exception, KeyboardInterrupt) as exc:
            self._capture_abort(exc)
            raise

    def _capture_abort(self, exc: BaseException) -> None:
        """Record the failure and dump a postmortem bundle (best-effort)."""
        if self.tracer is not None:
            try:  # close the job span (and any deeper strays) as aborted
                self.tracer.unwind(sim=self.sim_time)
            except Exception:
                pass
        if self.flight is not None:
            self.flight.record(
                "abort", superstep=self.superstep, sim=self.sim_time,
                error=type(exc).__name__, message=str(exc)[:200],
            )
        pm = self.job.postmortem
        if pm is not None:
            try:
                pm.dump(self, exc)
            except Exception:  # a broken dump must never mask the failure
                pass

    def _run_loop(self) -> JobResult:
        job = self.job
        step_queue = self.queues.queue("step")
        barrier_queue = self.queues.queue("barrier")

        for obs in self._observers:
            obs.on_job_start(self)

        if job.checkpoint_interval > 0:
            # Initial checkpoint so a failure before the first periodic one
            # can still roll back (Pregel checkpoints before superstep 0).
            self._checkpoint = self._capture_checkpoint(0)

        tracer = self.tracer
        job_span = (
            tracer.start("job", sim=self.sim_time, category="engine",
                         workers=self.num_workers)
            if tracer is not None
            else None
        )
        if self.flight is not None:
            self.flight.record(
                "job-start", sim=self.sim_time, workers=self.num_workers,
                program=type(job.program).__name__,
            )
        halted = False
        while self.superstep < job.max_supersteps:
            if not self.buffered_messages and self.active_vertices == 0:
                if not any(o.has_pending_work() for o in self._observers):
                    halted = True
                    break
                # Observers still hold work but injected nothing runnable:
                # give them a boundary callback on an empty step.
            # The superstep span closes after checkpoints, recovery, observers
            # and the post-superstep hook so its simulated duration covers
            # every cost charged to this superstep (== stats.elapsed).
            span = (
                tracer.start("superstep", sim=self.sim_time,
                             superstep=self.superstep)
                if tracer is not None
                else None
            )
            if self.flight is not None:
                self.flight.record(
                    "superstep-open", superstep=self.superstep,
                    sim=self.sim_time, active=self.active_vertices,
                )
            stats = None
            try:
                step_queue.put(("superstep", self.superstep))
                stats = self._run_one_superstep()
                step_queue.try_get()
                barrier_queue.put(("checkin", self.superstep, stats.active_end))
                barrier_queue.try_get()

                self._maybe_checkpoint(stats)
                failed = self._maybe_fail(stats)
                for obs in self._observers:
                    obs.on_superstep_end(self, stats)
                if self._master_halt and not failed:
                    if self.timeline is not None:
                        self.timeline.append(stats)
                    halted = True
                    self.superstep += 1
                    break
                if not failed:
                    self._post_superstep(stats)
                    # Record only committed supersteps, after every cost
                    # charged to this step (checkpoint, elastic resize) has
                    # landed in stats.elapsed; failed steps roll back instead.
                    if self.timeline is not None:
                        self.timeline.append(stats)
                    self.superstep += 1
                elif self.timeline is not None and self.superstep > stats.index:
                    # The failure struck after this boundary's checkpoint
                    # already captured the step: recovery resumes *past* it,
                    # so it is committed — record it, with the recovery cost
                    # it absorbed.
                    self.timeline.append(stats)
            finally:
                if span is not None:
                    if stats is not None:
                        span.attrs["active_end"] = stats.active_end
                    # A compute/flush phase that raised left its span open;
                    # repair the stack so this close cannot mask the error.
                    tracer.unwind(span, sim=self.sim_time)
                    tracer.end(span, sim=self.sim_time)
        else:
            halted = False
        if job_span is not None:
            tracer.end(job_span, sim=self.sim_time, supersteps=len(self.trace))
        if self.flight is not None:
            self.flight.record(
                "job-end", sim=self.sim_time, supersteps=len(self.trace),
                halted=halted,
            )

        values = self._extract_values()
        result = JobResult(
            values=values,
            trace=self.trace,
            meter=self.meter,
            supersteps=len(self.trace),
            halted=halted,
            aggregates=dict(self._agg_values),
            recoveries=list(self.recoveries),
            cost=attribute_cost(
                self.trace, worker_vm=self.vm_spec,
                manager_vm=self.job.manager_vm,
            ),
        )
        for obs in self._observers:
            on_job_end = getattr(obs, "on_job_end", None)
            if on_job_end is not None:
                on_job_end(self, result)
        return result

    # ------------------------------------------------------------------
    def _run_one_superstep(self) -> SuperstepStats:
        tracer = self.tracer
        host_t0 = perf_counter() if self._em is not None else 0.0
        stats = SuperstepStats(
            index=self.superstep,
            num_workers=self.num_workers,
            active_begin=self.active_vertices,
            injected=self._injected_count,
        )
        self._injected_count = 0

        # Compute phase: every worker drains its input buffer.
        compute_span = (
            tracer.start("compute", sim=self.sim_time)
            if tracer is not None else None
        )
        for w in self.workers:
            w.begin_superstep(self.superstep, self._agg_values)
        for w in self.workers:
            w.run_compute()
        if compute_span is not None:
            tracer.end(compute_span)

        # Flush phase: move bulk remote buffers between workers.
        flush_span = (
            tracer.start("flush", sim=self.sim_time)
            if tracer is not None else None
        )
        recv_msgs = np.zeros(self.num_workers, dtype=np.int64)
        recv_bytes = np.zeros(self.num_workers)
        peers_in = [set() for _ in range(self.num_workers)]
        for w in self.workers:
            w.stats.peers_out = len(w.out_remote)
            for dst_worker, per_vertex in sorted(w.out_remote.items()):
                msgs, wire = self.workers[dst_worker].deliver_remote(
                    per_vertex.items()
                )
                recv_bytes[dst_worker] += wire
                recv_msgs[dst_worker] += msgs
                peers_in[dst_worker].add(w.worker_id)
            w.stats.bytes_out = w.out_remote_wire_bytes
        if flush_span is not None:
            tracer.end(flush_span)

        self._merge_aggregators([w._agg_partials for w in self.workers])
        self._master_phase()
        self._account_superstep(
            stats,
            views=self.workers,
            recv_msgs=recv_msgs,
            recv_bytes=recv_bytes,
            peers_in=[len(p) for p in peers_in],
            compute_span=compute_span,
            flush_span=flush_span,
            host_t0=host_t0,
        )
        return stats

    def _merge_aggregators(self, partials_by_worker: list[dict]) -> None:
        """Barrier aggregator merge: fold worker partials in worker-id order.

        The worker-id fold order is part of the determinism contract — both
        execution backends must reassociate float sums identically.
        """
        tracer = self.tracer
        agg_span = (
            tracer.start("aggregate-merge", sim=self.sim_time)
            if tracer is not None else None
        )
        new_aggs: dict[str, Any] = {}
        for name, agg in self._aggregators.items():
            acc = agg.identity()
            for partials in partials_by_worker:
                if name in partials:
                    acc = agg.merge(acc, partials[name])
            new_aggs[name] = acc
        self._agg_values = new_aggs
        if agg_span is not None:
            tracer.end(agg_span)

    def _master_phase(self) -> None:
        """GPS-style global computation at the barrier."""
        tracer = self.tracer
        master_span = (
            tracer.start("master-compute", sim=self.sim_time)
            if tracer is not None else None
        )
        master_ctx = MasterContext(self)
        self.job.program.master_compute(master_ctx)
        if master_ctx._halt:
            self._master_halt = True
        if master_span is not None:
            tracer.end(master_span)

    def _account_superstep(
        self,
        stats: SuperstepStats,
        views,
        recv_msgs,
        recv_bytes,
        peers_in,
        compute_span,
        flush_span,
        host_t0: float,
    ) -> None:
        """Convert true counts into simulated seconds, then bill and record.

        ``views`` are per-worker resource views in worker-id order: the live
        :class:`~repro.bsp.worker.PartitionWorker` objects for the in-process
        engines, or the :mod:`repro.dist` engine's marshalled reports.  Each
        view exposes ``worker_id``, ``stats`` (a
        :class:`~repro.bsp.superstep.WorkerStepStats` with the compute-phase
        counts plus ``bytes_out``/``peers_out`` filled), and the resource
        hooks ``buffered_message_bytes()``, ``buffered_message_count()``,
        ``graph_bytes``, ``total_state_bytes``, ``memory_footprint()``.
        """
        model = self.model
        tracer = self.tracer
        eff = model.effective_cores(self.vm_spec.cores)
        restart_total = 0.0
        for w in views:
            ws = w.stats
            ws.bytes_in = float(recv_bytes[w.worker_id])
            ws.peers_in = int(peers_in[w.worker_id])
            ws.compute_time = (
                ws.compute_calls * model.t_compute_vertex
                + ws.msgs_in * model.t_msg_in
                + (ws.msgs_out_local + ws.msgs_out_remote) * model.t_msg_out
            ) / eff
            ws.serialize_time = (
                (ws.msgs_out_remote + int(recv_msgs[w.worker_id]))
                * model.t_serialize
                / eff
            )
            ws.network_time = self.network.transfer_time(
                TrafficSummary(
                    bytes_out=ws.bytes_out,
                    bytes_in=ws.bytes_in,
                    peers_out=ws.peers_out,
                    peers_in=ws.peers_in,
                ),
                superstep=self.superstep,
            )
            if model.disk_buffering or model.mapreduce_iteration:
                # Giraph/Hama-style disk buffering: every buffered message is
                # written now and read back next superstep (charged together
                # as sequential I/O); MR-style iteration additionally reloads
                # the partition + state from the DFS every superstep.
                traffic = 2.0 * w.buffered_message_bytes()
                if model.mapreduce_iteration:
                    traffic += w.graph_bytes + 2.0 * w.total_state_bytes
                ws.disk_time = traffic / model.disk_bandwidth
            ws.queue_depth = int(w.buffered_message_count())
            ws.memory_bytes = w.memory_footprint()
            ws.mem_slowdown = self.memory.slowdown(ws.memory_bytes)
            if self._jitter_rng is not None:
                # Always draw, so the rng sequence (and every untargeted
                # worker's timing) is identical whether or not
                # jitter_workers narrows the blast radius.
                wobble = float(self._jitter_rng.uniform(-1.0, 1.0))
                targets = self.model.jitter_workers
                if targets is None or w.worker_id in targets:
                    ws.jitter_factor = 1.0 + self.model.jitter * wobble
            if self.memory.restart_triggered(ws.memory_bytes):
                ws.restarted = True
                restart_total += model.restart_time
            stats.workers.append(ws)

        stats.barrier_time = model.barrier_time(self.num_workers)
        stats.restart_time = restart_total
        slowest = max((ws.elapsed for ws in stats.workers), default=0.0)
        stats.elapsed = slowest + stats.barrier_time + restart_total
        stats.active_end = self.active_vertices
        if tracer is not None:
            # Attribute simulated seconds to the already-closed phase spans:
            # the cost model prices them in one lump after the fact.  The
            # superstep span (closed by run()) stays authoritative.
            compute_span.set_sim_duration(
                max((ws.compute_time for ws in stats.workers), default=0.0)
            )
            flush_span.set_sim_duration(
                max(
                    (ws.serialize_time + ws.network_time + ws.disk_time
                     for ws in stats.workers),
                    default=0.0,
                )
            )
            tracer.record(
                "barrier", sim=self.sim_time + slowest,
                sim_duration=stats.barrier_time, workers=self.num_workers,
            )
            end = self.sim_time + stats.elapsed
            tracer.counter(
                "messages-in-flight", sim=end,
                buffered=sum(ws.queue_depth for ws in stats.workers),
            )
            tracer.counter(
                "worker-memory-mb", sim=end,
                **{f"w{ws.worker}": ws.memory_bytes / 1e6
                   for ws in stats.workers},
            )
        if self.flight is not None:
            self.flight.record(
                "barrier-enter", superstep=stats.index,
                sim=self.sim_time + slowest, workers=self.num_workers,
            )
            self.flight.record(
                "message-batch", superstep=stats.index, sim=self.sim_time,
                msgs_local=sum(ws.msgs_out_local for ws in stats.workers),
                msgs_remote=sum(ws.msgs_out_remote for ws in stats.workers),
                bytes_out=sum(ws.bytes_out for ws in stats.workers),
                queued=sum(ws.queue_depth for ws in stats.workers),
            )
            self.flight.record(
                "memory-sample", superstep=stats.index, sim=self.sim_time,
                peak_bytes=stats.peak_memory,
                worker_mb={
                    str(ws.worker): round(ws.memory_bytes / 1e6, 3)
                    for ws in stats.workers
                },
            )
        self.sim_time += stats.elapsed
        stats.sim_time_end = self.sim_time
        if self.flight is not None:
            self.flight.record(
                "barrier-exit", superstep=stats.index, sim=self.sim_time,
                active=stats.active_end, elapsed=stats.elapsed,
            )
        self.trace.append(stats)
        if self._em is not None:
            self._em.observe_superstep(stats, perf_counter() - host_t0)

        # Pay-as-you-go: every allocated VM bills for the whole superstep.
        self.meter.charge(
            self.vm_spec,
            self.num_workers,
            stats.elapsed,
            label=f"superstep-{stats.index}",
        )
        self.meter.charge(
            self.job.manager_vm, 1, stats.elapsed, label=f"manager-{stats.index}"
        )

    def _post_superstep(self, stats: SuperstepStats) -> None:
        """Hook for subclasses, called after observers at each boundary.

        :class:`~repro.elastic.live.LiveElasticEngine` overrides this to
        resize the worker fleet between supersteps.
        """

    def _extract_values(self) -> dict[int, Any]:
        """Collect the user-facing result values from every worker."""
        program = self.job.program
        values: dict[int, Any] = {}
        for w in self.workers:
            for v, st in w.states.items():
                values[v] = program.extract(v, st)
        return values

    # ------------------------------------------------------------------
    # Checkpointing and failure recovery (Pregel-style coordinated rollback)
    # ------------------------------------------------------------------
    def _state_bytes_total(self) -> float:
        return sum(
            w.graph_bytes + w.total_state_bytes + w.in_next_payload_bytes
            for w in self.workers
        )

    def _capture_checkpoint(self, superstep: int) -> dict:
        """Snapshot every worker's state; ``superstep`` is the resume point.

        Workers snapshot by reference; this deep copy is the checkpoint's
        one copy."""
        return {
            "superstep": superstep,
            "agg_values": dict(self._agg_values),
            "workers": copy.deepcopy([w.snapshot() for w in self.workers]),
        }

    def _restore_checkpoint(self) -> None:
        """Reload every worker from :attr:`_checkpoint` (the mechanics only;
        timing/metering live in :meth:`_recover`).  Workers adopt a fresh
        copy, so the checkpoint itself stays intact for a later rollback."""
        snaps = copy.deepcopy(self._checkpoint["workers"])
        for w, snap in zip(self.workers, snaps):
            w.restore(snap)

    def _fail_worker(self, worker_id: int) -> None:
        """Make the scheduled failure happen.  The simulated engines model
        the failure implicitly (rollback is the only observable effect);
        the process engine overrides this to actually kill the worker."""

    def _maybe_checkpoint(self, stats: SuperstepStats) -> None:
        interval = self.job.checkpoint_interval
        if interval <= 0 or (self.superstep + 1) % interval != 0:
            return
        span = (
            self.tracer.start("checkpoint", sim=self.sim_time)
            if self.tracer is not None else None
        )
        self._checkpoint = self._capture_checkpoint(self.superstep + 1)
        # Writing states + buffered messages to blob storage takes time.
        write_time = self._state_bytes_total() / self.model.checkpoint_bandwidth
        self.sim_time += write_time
        stats.elapsed += write_time
        stats.sim_time_end = self.sim_time
        self.meter.charge(
            self.vm_spec, self.num_workers, write_time, label="checkpoint"
        )
        if span is not None:
            self.tracer.end(span, sim=self.sim_time)
        if self.flight is not None:
            self.flight.record(
                "checkpoint", superstep=self.superstep, sim=self.sim_time,
                resume_point=self.superstep + 1, write_seconds=write_time,
            )
        if self._em is not None:
            self._em.checkpoints.inc()
            self._em.checkpoint_sim.inc(write_time)

    def _maybe_fail(self, stats: SuperstepStats) -> bool:
        worker_id = self._failure_schedule.pop(self.superstep, None)
        if worker_id is None:
            return False
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(f"failure_schedule names unknown worker {worker_id}")
        self._fail_worker(worker_id)
        self._recover(worker_id, stats)
        return True

    def _recover(self, worker_id: int, stats: SuperstepStats) -> None:
        """Coordinated rollback: every worker reloads the last checkpoint
        (or the initial state when none was taken yet)."""
        assert self._checkpoint is not None  # taken at job start
        span = (
            self.tracer.start("recovery", sim=self.sim_time,
                              failed_worker=worker_id)
            if self.tracer is not None else None
        )
        resume_from = self._checkpoint["superstep"]
        self._restore_checkpoint()
        self._agg_values = dict(self._checkpoint["agg_values"])
        self._master_halt = False  # a halt decided in the lost epoch is void
        restore_time = (
            self.model.restart_time
            + self._state_bytes_total() / self.model.checkpoint_bandwidth
        )
        self.sim_time += restore_time
        stats.elapsed += restore_time
        stats.sim_time_end = self.sim_time
        self.meter.charge(
            self.vm_spec, self.num_workers, restore_time, label="recovery"
        )
        self.recoveries.append(
            RecoveryEvent(
                failed_superstep=self.superstep,
                failed_worker=worker_id,
                resumed_from=resume_from,
                recovery_seconds=restore_time,
            )
        )
        if span is not None:
            self.tracer.end(span, sim=self.sim_time, resumed_from=resume_from)
        if self.flight is not None:
            self.flight.record(
                "recovery", superstep=self.superstep, sim=self.sim_time,
                failed_worker=worker_id, resumed_from=resume_from,
                restore_seconds=restore_time,
            )
        if self._em is not None:
            self._em.recoveries.inc()
            self._em.recovery_sim.inc(restore_time)
        if self.timeline is not None:
            # The lost epoch's rows vanish with the checkpoint; the replayed
            # supersteps re-record on commit.
            self.timeline.rollback(resume_from)
        self.superstep = resume_from


class _EngineInstruments:
    """Engine metrics, resolved once so the superstep loop stays cheap.

    Names and labels are documented in ``docs/observability.md``; the
    registry is duck-typed (:class:`repro.obs.MetricsRegistry`) so the
    engine keeps zero imports from the observability package.
    """

    def __init__(self, registry) -> None:
        self.supersteps = registry.counter(
            "bsp_supersteps_total",
            help="Supersteps executed (replayed ones after recovery included)",
        )
        self.msgs_local = registry.counter(
            "bsp_messages_total",
            help="Messages emitted, post-combine, by delivery plane",
            kind="local",
        )
        self.msgs_remote = registry.counter("bsp_messages_total", kind="remote")
        self.remote_bytes = registry.counter(
            "bsp_remote_bytes_total",
            help="Wire bytes moved between workers at flush",
        )
        self.injected = registry.counter(
            "bsp_injected_messages_total",
            help="Control-plane activation messages injected at boundaries",
        )
        self.compute_calls = registry.counter(
            "bsp_compute_calls_total", help="Vertex compute() invocations"
        )
        self.active = registry.gauge(
            "bsp_active_vertices", help="Active vertices after the last barrier"
        )
        self.workers = registry.gauge(
            "bsp_workers", help="Partition workers in the fleet"
        )
        self.sim_time = registry.gauge(
            "bsp_sim_time_seconds", help="Cumulative simulated job time"
        )
        self.peak_memory = registry.gauge(
            "bsp_superstep_peak_memory_bytes",
            help="Peak per-worker memory in the last superstep",
        )
        self.step_sim = registry.histogram(
            "bsp_superstep_sim_seconds",
            help="Simulated superstep durations",
        )
        self.step_host = registry.histogram(
            "bsp_superstep_host_seconds",
            help="Host wall-clock superstep durations",
        )
        self.barrier_sim = registry.counter(
            "bsp_barrier_sim_seconds_total",
            help="Simulated seconds spent in barriers",
        )
        self.restarts = registry.counter(
            "bsp_worker_restarts_total",
            help="Fabric-initiated VM restarts from memory overflow",
        )
        self.checkpoints = registry.counter(
            "bsp_checkpoints_total", help="Checkpoints written"
        )
        self.checkpoint_sim = registry.counter(
            "bsp_checkpoint_sim_seconds_total",
            help="Simulated seconds spent writing checkpoints",
        )
        self.recoveries = registry.counter(
            "bsp_recoveries_total", help="Coordinated rollbacks executed"
        )
        self.recovery_sim = registry.counter(
            "bsp_recovery_sim_seconds_total",
            help="Simulated seconds spent restoring checkpoints",
        )

    def observe_superstep(self, stats: SuperstepStats, host_seconds: float) -> None:
        self.supersteps.inc()
        self.msgs_local.inc(sum(w.msgs_out_local for w in stats.workers))
        self.msgs_remote.inc(sum(w.msgs_out_remote for w in stats.workers))
        self.remote_bytes.inc(sum(w.bytes_out for w in stats.workers))
        self.injected.inc(stats.injected)
        self.compute_calls.inc(stats.compute_calls)
        self.active.set(stats.active_end)
        self.workers.set(stats.num_workers)
        self.sim_time.set(stats.sim_time_end)
        self.peak_memory.set(stats.peak_memory)
        self.step_sim.observe(stats.elapsed)
        self.step_host.observe(host_seconds)
        self.barrier_sim.inc(stats.barrier_time)
        self.restarts.inc(sum(1 for w in stats.workers if w.restarted))


def run_job(job: JobSpec) -> JobResult:
    """Convenience: build an engine and run the job."""
    return BSPEngine(job).run()

"""RunTimeline: the committed-steps view of a run's :class:`JobTrace`.

The paper's core analyses (§V-§VII, Figs. 9-14) are all per-superstep,
per-worker measurements — worker utilization under barrier skew, load
imbalance inside supersteps, message/memory phase behavior.  The engine
records every one of those quantities in its
:class:`~repro.bsp.superstep.SuperstepStats`; a :class:`RunTimeline` is a
:class:`~repro.bsp.superstep.JobTrace` that holds the *committed* ones —
the very objects the engine appended to ``result.trace``, by reference —
without the epochs a failure rolled back.

Serialized, one row per superstep x worker carries only *deterministic
simulated* quantities (no host clocks), so the recorded timeline is
**byte-identical across execution backends** — sim, process and tcp runs
of the same job on the same seed serialize to the same JSON (tests
assert it).  Alongside the steps the timeline keeps what the trace lacks:

* free-form :meth:`RunTimeline.annotate` events (swath initiations, etc.);
* :meth:`RunTimeline.rollback`, which failure recovery calls so a killed
  epoch's steps are discarded with the checkpoint — the final timeline of
  a failed-and-recovered run equals that of an undisturbed run (tests
  assert this for the process engine's real kill/respawn path too).

Recording is engine-driven through the same duck-typed slot pattern as the
tracer/metrics sinks: ``JobSpec(timeline=RunTimeline())``, one ``is None``
guard per site, zero cost when unattached.

On top of the steps, :mod:`repro.obs.diagnose` runs straggler/skew
attribution and critical-path analysis, and ``repro perf`` renders and
diffs saved timelines.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..bsp.superstep import JobTrace, SuperstepStats, WorkerStepStats

__all__ = [
    "TIMELINE_FORMAT_VERSION",
    "RunTimeline",
    "timeline_to_dict",
    "timeline_from_dict",
    "read_timeline",
]

TIMELINE_FORMAT_VERSION = 1

#: step keys of the v1 dump after "superstep" (overhead_time is derived)
_STEP_KEYS = (
    "num_workers", "active_begin", "active_end", "injected", "barrier_time",
    "restart_time", "overhead_time", "elapsed", "sim_time_end",
)
#: row keys of the v1 dump after "superstep" and "worker"
_ROW_KEYS = (
    "compute_calls", "msgs_in", "msgs_out_local", "msgs_out_remote",
    "bytes_in", "bytes_out", "queue_depth", "compute_time", "serialize_time",
    "network_time", "disk_time", "memory_bytes", "mem_slowdown",
    "jitter_factor", "restarted",
)


class RunTimeline(JobTrace):
    """The committed supersteps of one run, plus annotations.

    Attach through the job spec (``JobSpec(timeline=...)`` or
    ``RunConfig(timeline=...)``); the engine appends each *committed*
    superstep's stats — aborted epochs (worker death mid-superstep) never
    record, and scheduled failures roll their steps back via
    :meth:`rollback`.
    """

    def __init__(self) -> None:
        super().__init__()
        #: free-form annotations: {"superstep", "kind", ...attrs}
        self.events: list[dict[str, Any]] = []
        #: per-worker rows discarded by failure rollbacks (diagnostic)
        self.rolled_back_rows = 0

    def annotate(self, superstep: int, kind: str, **attrs: Any) -> None:
        """Attach a control-plane event (swath start, policy decision...)."""
        self.events.append({"superstep": int(superstep), "kind": kind, **attrs})

    def rollback(self, resume_from: int) -> None:
        """Discard everything recorded for supersteps >= ``resume_from``.

        Called by the engine's coordinated rollback so a killed epoch's
        steps vanish with the checkpoint; the replayed supersteps
        re-record.  Annotations made before the rolled-back range survive.
        """
        kept = [s for s in self.steps if s.index < resume_from]
        self.rolled_back_rows += sum(
            len(s.workers) for s in self.steps if s.index >= resume_from
        )
        self.steps = kept
        self.events = [e for e in self.events if e["superstep"] < resume_from]

    @property
    def rows(self) -> list[WorkerStepStats]:
        """Every per-(superstep, worker) record, in step then worker order."""
        return [w for s in self.steps for w in s.workers]

    # ------------------------------------------------------------------
    # Serialization (deterministic: fixed key order, raw fields only)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return timeline_to_dict(self)

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))


def timeline_to_dict(timeline: RunTimeline) -> dict:
    """Plain-data representation (JSON-serializable, deterministic order)."""
    return {
        "version": TIMELINE_FORMAT_VERSION,
        "steps": [
            {"superstep": s.index, **{k: getattr(s, k) for k in _STEP_KEYS}}
            for s in timeline.steps
        ],
        "rows": [
            {
                "superstep": s.index,
                "worker": w.worker,
                **{k: getattr(w, k) for k in _ROW_KEYS},
            }
            for s in timeline.steps
            for w in s.workers
        ],
        "events": list(timeline.events),
    }


def timeline_from_dict(data: dict) -> RunTimeline:
    """Inverse of :func:`timeline_to_dict`."""
    version = data.get("version")
    if version != TIMELINE_FORMAT_VERSION:
        raise ValueError(f"unsupported timeline version {version!r}")
    if "rows" not in data or "steps" not in data:
        raise ValueError(
            "not a timeline dump: missing 'rows'/'steps' "
            "(is this a trace or spans file?)"
        )
    tl = RunTimeline()
    by_index: dict[int, SuperstepStats] = {}
    for s in data["steps"]:
        stats = SuperstepStats(
            index=s["superstep"],
            **{k: s[k] for k in _STEP_KEYS if k != "overhead_time" and k in s},
        )
        by_index[stats.index] = stats
        tl.append(stats)
    for r in data["rows"]:
        by_index[r["superstep"]].workers.append(
            WorkerStepStats(
                worker=r["worker"], **{k: r[k] for k in _ROW_KEYS if k in r}
            )
        )
    tl.events = [dict(e) for e in data.get("events", ())]
    return tl


def read_timeline(path: str | Path) -> RunTimeline:
    return timeline_from_dict(json.loads(Path(path).read_text()))

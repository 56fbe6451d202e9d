"""Static engine auto-selection for ``repro run --engine auto``.

The paper's thesis is that BSP performance on clouds is won by choosing
the execution strategy *before* the job runs.  This module is that
choice as a pure function: given the static analyses the runner already
computes — the vectorize verdict (can the program execute densely?), the
costmodel :class:`~repro.check.costmodel.ProgramProfile` (fan-out class,
pickle safety), and the host/worker topology — rank the four backends
{dense-ref, tcp, process, sim} and return the winner together with every
reason: why it won, why each excluded engine was excluded, and any
hazards in the outcome (the RPC022 condition).  :func:`make_engine`
builds the backend a name (chosen or given) stands for.

The decision is recorded on :attr:`JobResult.engine_decision
<repro.bsp.job.JobResult.engine_decision>` and in the flight recorder
(``engine.autoselect``), so a post-mortem can always answer "why did
this job run on that engine".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..check.costmodel import FanoutClass

__all__ = [
    "ENGINES", "EngineDecision", "make_engine", "select_engine",
    "dense_refused_features",
]

#: every backend name :func:`make_engine` builds
ENGINES = ("sim", "process", "tcp", "dense-ref")

#: Ranking scores per (engine, multi-worker?).  dense-ref dominates when
#: eligible — it replaces the per-vertex Python loop with NumPy kernels.
#: With real parallelism available (num_workers > 1) the distributed
#: engines beat the sequential simulator; single-worker, their setup cost
#: is pure overhead and the simulator wins the fallback.
_SCORES_MULTI = {"dense-ref": 100, "tcp": 70, "process": 60, "sim": 30}
_SCORES_SINGLE = {"dense-ref": 100, "sim": 30, "process": 15, "tcp": 10}


def make_engine(name: str, job: Any, *, tcp_hosts: Any = None) -> Any:
    """Build the backend ``name`` (one of :data:`ENGINES`) for ``job``.

    ``tcp_hosts`` is the tcp backend's endpoints: a list of ``(host,
    port)`` pairs or a workers-file path; None auto-spawns localhost
    daemons.  Backends are imported on first use.
    """
    if name == "sim":
        from ..bsp.engine import BSPEngine

        return BSPEngine(job)
    if name == "process":
        from ..dist import ProcessBSPEngine

        return ProcessBSPEngine(job)
    if name == "tcp":
        from ..net.engine import TcpBSPEngine

        if isinstance(tcp_hosts, str):
            return TcpBSPEngine(job, workers_file=tcp_hosts)
        return TcpBSPEngine(job, endpoints=tcp_hosts)
    if name == "dense-ref":
        from ..bsp.dense_ref import DenseRefEngine

        return DenseRefEngine(job)
    raise ValueError(
        f"unknown engine {name!r}; use one of: {', '.join(ENGINES)}"
    )


@dataclass(frozen=True)
class EngineDecision:
    """The ranked outcome of one static engine selection."""

    engine: str
    #: why the winner won, in ranking order
    reasons: tuple[str, ...]
    #: every eligible engine with its score, best first
    ranking: tuple[tuple[str, int], ...]
    #: engines ruled out, with the static fact that ruled each out
    excluded: tuple[tuple[str, str], ...]
    #: RPC022-style hazards in the outcome (non-fatal, recorded)
    hazards: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "engine": self.engine,
            "reasons": list(self.reasons),
            "ranking": [[e, s] for e, s in self.ranking],
            "excluded": [[e, r] for e, r in self.excluded],
            "hazards": list(self.hazards),
        }

    def render(self) -> str:
        lines = [f"engine auto-selection: {self.engine}"]
        for r in self.reasons:
            lines.append(f"  + {r}")
        for e, r in self.excluded:
            lines.append(f"  - {e}: {r}")
        for h in self.hazards:
            lines.append(f"  ! {h}")
        return "\n".join(lines)


def dense_refused_features(
    program: Any,
    verdict: Any,
    *,
    observers: Any = (),
    sanitize: bool = False,
    sinks: Any = (),
    initial_messages: Any = (),
) -> list[str]:
    """Job-level features the dense executor does not model.

    The lifter proves the *program*; these are properties of the *job*
    binding it — live observers, per-delivery sinks, a sanitizing
    wrapper, or a bound attribute the plan required to be None.  The
    flight recorder is NOT such a feature: dense-ref emits no per-vertex
    events but runs fine under one.
    """
    out: list[str] = []
    if observers:
        out.append(
            f"job attaches {len(list(observers))} observer(s); dense-ref "
            "has no per-superstep observer protocol"
        )
    if sanitize:
        out.append(
            "job requests --sanitize (per-delivery payload fingerprints); "
            "dense-ref never materializes per-vertex deliveries"
        )
    for name in sinks:
        out.append(
            f"job attaches a {name} sink; dense-ref does not emit "
            "per-vertex events into it"
        )
    plan = getattr(verdict, "plan", None) if verdict is not None else None
    if plan is not None:
        for name in plan.requires_none:
            if getattr(program, name, None) is not None:
                out.append(
                    f"plan was lifted for {name}=None but the program "
                    f"binds {name}={getattr(program, name)!r}"
                )
        if getattr(plan, "_needs_prune", False) and initial_messages:
            out.append(
                "peel plans cannot start from injected messages"
            )
    return out


def select_engine(
    *,
    verdict: Any,
    profile: Any,
    num_workers: int = 1,
    tcp_hosts: Any = None,
    features: Any = (),
) -> EngineDecision:
    """Rank the backends for one job and pick the best eligible one.

    ``verdict`` is the program's :class:`LiftResult` (or None when the
    program has no locatable source); ``features`` are job-level
    dense-ref blockers from :func:`dense_refused_features`.  Never
    raises: sim is always eligible, so there is always a winner.
    """
    scores = _SCORES_MULTI if num_workers > 1 else _SCORES_SINGLE
    excluded: list[tuple[str, str]] = []

    # -- dense-ref: needs a lifted plan and a plain job ----------------
    dense_ok = True
    if verdict is None:
        dense_ok = False
        excluded.append((
            "dense-ref",
            "no kernel plan: cannot locate the program's source",
        ))
    elif getattr(verdict, "plan", None) is None:
        dense_ok = False
        excluded.append((
            "dense-ref",
            f"plan refused: {verdict.rule_id} at line "
            f"{verdict.refusal_line}: {verdict.reason}",
        ))
    for feature in features:
        dense_ok = False
        excluded.append(("dense-ref", str(feature)))

    # -- process/tcp: need picklable programs (the RPC011 gate) -------
    risks = tuple(getattr(profile, "pickle_risks", ()) or ())
    fork_ok = not risks
    if risks:
        detail = (
            f"pickle-unsafe state (RPC011, line {risks[0].line}: "
            f"{risks[0].detail})"
        )
        excluded.append(("process", detail))
        excluded.append(("tcp", detail))
    tcp_ok = fork_ok
    if fork_ok and tcp_hosts is None:
        tcp_ok = False
        excluded.append(("tcp", "no worker endpoints configured (--hosts)"))

    eligible = {"sim"}
    if dense_ok:
        eligible.add("dense-ref")
    if fork_ok:
        eligible.add("process")
    if tcp_ok:
        eligible.add("tcp")

    ranking = tuple(sorted(
        ((e, scores[e]) for e in eligible),
        key=lambda es: (-es[1], es[0]),
    ))
    winner = ranking[0][0]

    reasons: list[str] = []
    if winner == "dense-ref":
        reasons.append(
            f"program lifts to KernelPlan {verdict.plan.digest[:16]} "
            "(RPC015): dense NumPy execution replaces the per-vertex "
            "Python loop"
        )
    elif winner == "tcp":
        reasons.append(
            f"picklable program + {num_workers} workers on configured "
            "endpoints: real multi-host parallelism"
        )
    elif winner == "process":
        reasons.append(
            f"picklable program + {num_workers} workers: process "
            "parallelism beats the sequential simulator"
        )
    else:
        reasons.append(
            "sequential simulator: no eligible engine beats it for "
            f"num_workers={num_workers}"
        )

    hazards: list[str] = []
    if (
        winner == "sim"
        and profile is not None
        and getattr(profile, "fanout", None) is FanoutClass.BROADCAST
    ):
        hazards.append(
            "broadcast fan-out routed to a single-process engine "
            "(sim): message volume will not parallelize (RPC022)"
        )

    return EngineDecision(
        engine=winner,
        reasons=tuple(reasons),
        ranking=ranking,
        excluded=tuple(excluded),
        hazards=tuple(hazards),
    )

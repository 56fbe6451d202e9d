"""DenseRefEngine: bit-equivalence against BSPEngine, refusal gates, and
the engine-selection wiring (sanitizer, runner, run_job_dense_ref).
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from repro.algorithms import (
    BCProgram,
    ConnectedComponentsProgram,
    KCoreProgram,
    LabelPropagationProgram,
    PageRankProgram,
    SSSPProgram,
    WCCProgram,
)
from repro.bsp import BSPEngine, JobSpec
from repro.bsp.dense_ref import (
    DenseRefEngine,
    PlanRefusedError,
    run_job_dense_ref,
)
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.obs import RunTimeline, SpanTracer


def _equivalent(ref, dense, rel_tol=1e-9, abs_tol=1e-12):
    assert ref.supersteps == dense.supersteps
    assert ref.halted == dense.halted
    assert set(ref.values) == set(dense.values)
    for v in ref.values:
        a, b = ref.values[v], dense.values[v]
        if isinstance(a, float):
            assert math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol), (
                v, a, b,
            )
        else:
            assert a == b, (v, a, b)
    assert set(ref.aggregates) == set(dense.aggregates)
    for k in ref.aggregates:
        a, b = ref.aggregates[k], dense.aggregates[k]
        if isinstance(a, float):
            assert math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol), k
        else:
            assert a == b, k


def _run_both(program_factory, graph, **kwargs):
    ref = BSPEngine(
        JobSpec(program=program_factory(), graph=graph, num_workers=1,
                **kwargs)
    ).run()
    dense = DenseRefEngine(
        JobSpec(program=program_factory(), graph=graph, num_workers=4,
                **kwargs)
    ).run()
    return ref, dense


@pytest.fixture(scope="module")
def directed():
    return gen.erdos_renyi(60, 0.08, seed=3, directed=True)


@pytest.fixture(scope="module")
def undirected():
    return gen.watts_strogatz(60, 4, 0.3, seed=7).as_undirected()


def test_pagerank_equivalence(directed):
    ref, dense = _run_both(lambda: PageRankProgram(iterations=12), directed)
    _equivalent(ref, dense)
    assert dense.kernel_plan is not None
    assert dense.kernel_plan.reduce == "sum"


def test_sssp_weighted_equivalence(directed):
    rng = np.random.default_rng(4)
    gw = CSRGraph(
        directed.num_vertices, directed.indptr, directed.indices,
        weights=rng.uniform(0.5, 3.0, directed.num_arcs),
    )
    ref, dense = _run_both(lambda: SSSPProgram(source=0), gw)
    _equivalent(ref, dense)


def test_cc_and_wcc_equivalence(undirected):
    for factory in (ConnectedComponentsProgram, WCCProgram):
        ref, dense = _run_both(factory, undirected)
        _equivalent(ref, dense)


def test_kcore_peel_cascade_equivalence():
    # A path peels one layer per round under k=2: the longest mutation
    # cascade a small fixture can force.
    g = gen.path(24).as_undirected()
    ref, dense = _run_both(lambda: KCoreProgram(k=2), g)
    _equivalent(ref, dense)
    assert ref.supersteps > 5  # the cascade actually happened


def test_lpa_equivalence_with_mode_ties(undirected):
    ref, dense = _run_both(
        lambda: LabelPropagationProgram(max_rounds=20), undirected
    )
    _equivalent(ref, dense)


def test_max_supersteps_cap(undirected):
    ref, dense = _run_both(WCCProgram, undirected, max_supersteps=2)
    _equivalent(ref, dense)
    assert not dense.halted


def test_initially_active_subset(undirected):
    ref, dense = _run_both(
        WCCProgram, undirected, initially_active=[0, 7, 13]
    )
    _equivalent(ref, dense)


def test_initial_messages(directed):
    ref, dense = _run_both(
        lambda: SSSPProgram(source=0), directed,
        initially_active=False, initial_messages=[(0, 0.0)],
    )
    _equivalent(ref, dense)


def test_refused_program_raises_with_rule_and_span(directed):
    with pytest.raises(PlanRefusedError, match="RPC016"):
        DenseRefEngine(
            JobSpec(program=BCProgram(), graph=directed, num_workers=2)
        )


def test_param_bound_outside_plan_is_refused(directed):
    # The plan was lifted for weight_fn=None; binding a callable breaks
    # the precondition and must refuse, not silently ignore the function.
    prog = SSSPProgram(source=0, weight_fn=lambda u, v: 2.0)
    with pytest.raises(PlanRefusedError, match="weight_fn"):
        DenseRefEngine(
            JobSpec(program=prog, graph=directed, num_workers=2)
        )


def test_peel_plan_refuses_injected_messages():
    g = gen.path(10).as_undirected()
    with pytest.raises(PlanRefusedError, match="injected"):
        DenseRefEngine(
            JobSpec(
                program=KCoreProgram(k=2), graph=g, num_workers=2,
                initial_messages=[(0, (1, 2))],
            )
        )


@pytest.mark.parametrize(
    "kwargs, named",
    [
        (dict(checkpoint_interval=3, failure_schedule={4: 1}),
         ["checkpoint_interval=3"]),
        (dict(checkpoint_interval=2), ["checkpoint_interval=2"]),
        (dict(observers=[object()]), ["1 observer(s)"]),
        (dict(timeline=RunTimeline()), ["a timeline"]),
        (dict(checkpoint_interval=3, observers=[object()],
              timeline=RunTimeline()),
         ["checkpoint_interval=3", "1 observer(s)", "a timeline"]),
    ],
    ids=["failure", "checkpoint", "observer", "timeline", "all"],
)
def test_unmodeled_job_features_are_refused(directed, kwargs, named):
    # Sim recovers from the failure and records the timeline; dense-ref
    # used to run the same job with 0 recoveries and an empty timeline.
    job = JobSpec(program=PageRankProgram(6), graph=directed, num_workers=1,
                  **kwargs)
    with pytest.raises(PlanRefusedError, match="dense-ref does not model") \
            as exc:
        DenseRefEngine(job)
    for feature in named:
        assert feature in str(exc.value)


def test_tracer_is_allowed(directed):
    res = DenseRefEngine(
        JobSpec(program=PageRankProgram(6), graph=directed, num_workers=1,
                tracer=SpanTracer())
    ).run()
    assert res.supersteps > 0


def test_run_job_dense_ref_helper(directed):
    res = run_job_dense_ref(
        JobSpec(
            program=PageRankProgram(iterations=5), graph=directed,
            num_workers=2,
        )
    )
    assert res.supersteps == 6
    assert res.halted


def test_runner_engine_dense_ref(directed):
    from repro.analysis.runner import RunConfig, run_pagerank

    sim = run_pagerank(directed, RunConfig(num_workers=2), iterations=8)
    dense = run_pagerank(
        directed, RunConfig(num_workers=2, engine="dense-ref"),
        iterations=8,
    )
    _equivalent(sim, dense)


def test_certify_determinism_dense_ref_engine(undirected):
    from repro.check.sanitizer import certify_determinism

    report = certify_determinism(
        WCCProgram, undirected, num_workers=4, engine="dense-ref"
    )
    assert report.ok, report.summary()
    assert report.engine == "dense-ref"


def test_explicit_plan_override(directed):
    from repro.check.vectorize import lift_of

    plan = lift_of(PageRankProgram).plan
    assert plan is not None
    res = DenseRefEngine(
        JobSpec(
            program=PageRankProgram(iterations=4), graph=directed,
            num_workers=2,
        ),
        plan=plan,
    ).run()
    assert res.kernel_plan is plan


# ----------------------------------------------------------------------
# Whole-range and masked scatters in one job
# ----------------------------------------------------------------------
def _frontier_graph(undirected=False, weighted=False):
    """A 9-cycle with chords, vertices 9 and 10 dangling (in-arcs only)
    and vertex 11 isolated; every vertex with out-arcs is reachable from
    0, so a frontier grown from 0 ends up covering the whole arc range."""
    from repro.graph.builder import from_edges

    edges = [(v, (v + 1) % 9) for v in range(9)]
    edges += [(2, 5), (7, 3), (4, 0), (3, 9), (6, 9), (8, 10)]
    g = from_edges(12, edges, undirected=undirected)
    if weighted:
        rng = np.random.default_rng(11)
        g = CSRGraph(g.num_vertices, g.indptr, g.indices,
                     weights=rng.uniform(0.5, 3.0, g.num_arcs))
    return g


def _bits(x):
    return struct.pack("<d", x) if isinstance(x, float) else x


def _bit_equal(ref, dense):
    assert dense.supersteps == ref.supersteps
    assert dense.halted == ref.halted
    assert {v: _bits(x) for v, x in dense.values.items()} == {
        v: _bits(x) for v, x in ref.values.items()
    }
    assert {k: _bits(x) for k, x in dense.aggregates.items()} == {
        k: _bits(x) for k, x in ref.aggregates.items()
    }


_HAS_OUT = list(range(9))  # vertices of _frontier_graph with out-arcs

FRONTIER_CASES = {
    # partial frontier first (one active vertex), whole range once the
    # ranks reach every vertex with out-arcs
    "pagerank": (lambda: PageRankProgram(iterations=12),
                 dict(initially_active=[0]), {}),
    # every vertex with out-arcs improves at superstep 0, then only the
    # improved ones send
    "sssp": (lambda: SSSPProgram(source=0), dict(
        initially_active=False,
        initial_messages=[(v, float(9 - v)) for v in _HAS_OUT],
    ), dict(weighted=True)),
    # every vertex sends at superstep 0, then only changed labels send
    "cc": (ConnectedComponentsProgram, {}, dict(undirected=True)),
    "wcc": (WCCProgram, {}, dict(undirected=True)),
    "lpa": (lambda: LabelPropagationProgram(max_rounds=12),
            dict(initially_active=[0, 4]), dict(undirected=True)),
    # peel plans keep a live-arc mask, so every scatter is masked
    "kcore": (lambda: KCoreProgram(k=2), {}, dict(undirected=True)),
    # ... even when every vertex with arcs peels (and sends) at once
    "kcore-all-peel": (lambda: KCoreProgram(k=8), {},
                       dict(undirected=True)),
}


@pytest.mark.parametrize("name", sorted(FRONTIER_CASES))
def test_whole_range_and_masked_scatters_bit_equal_sim(name, monkeypatch):
    from repro.bsp import dense_ref

    factory, job_kwargs, graph_kwargs = FRONTIER_CASES[name]
    g = _frontier_graph(**graph_kwargs)
    kinds = []
    for method in ("arc", "arc_hoisted"):
        real = getattr(dense_ref._Eval, method)

        def spy(self, expr, arcs, _real=real):
            kinds.append("whole" if arcs is dense_ref._ALL_ARCS else "masked")
            return _real(self, expr, arcs)

        monkeypatch.setattr(dense_ref._Eval, method, spy)

    ref, dense = _run_both(factory, g, **job_kwargs)
    _bit_equal(ref, dense)
    expected = (
        {"masked"} if name.startswith("kcore") else {"whole", "masked"}
    )
    assert set(kinds) == expected


def test_caller_plan_with_prune_but_no_mutation_stays_masked(monkeypatch):
    # a hand-built plan may carry prune ops without uses_mutation; its
    # scatters must still gather explicit arc ids for the prune to read
    from dataclasses import replace

    from repro.bsp import dense_ref

    g = _frontier_graph(undirected=True)

    def job():
        return JobSpec(program=KCoreProgram(k=8), graph=g, num_workers=1)

    plan = replace(DenseRefEngine(job()).plan, uses_mutation=False)
    seen = []
    real = dense_ref._Eval.arc

    def spy(self, expr, arcs):
        seen.append(arcs is dense_ref._ALL_ARCS)
        return real(self, expr, arcs)

    monkeypatch.setattr(dense_ref._Eval, "arc", spy)
    res = DenseRefEngine(job(), plan=plan).run()
    assert res.supersteps > 1
    assert seen and not any(seen)


def test_extract_default_and_overridden(directed):
    # an inherited extract() maps the state list straight into the dict;
    # an overriding one still runs once per vertex
    class Doubled(PageRankProgram):
        def extract(self, vertex_id, state):
            return 2.0 * state

    plan = DenseRefEngine(
        JobSpec(program=PageRankProgram(iterations=5), graph=directed,
                num_workers=1)
    ).plan
    a = DenseRefEngine(JobSpec(program=PageRankProgram(iterations=5),
                               graph=directed, num_workers=1)).run()
    b = DenseRefEngine(JobSpec(program=Doubled(iterations=5),
                               graph=directed, num_workers=1),
                       plan=plan).run()
    assert list(a.values) == list(range(directed.num_vertices))
    assert all(type(x) is float for x in a.values.values())
    assert {v: _bits(2.0 * x) for v, x in a.values.items()} == {
        v: _bits(x) for v, x in b.values.items()
    }


def test_static_analysis_runs_once_per_program(directed, monkeypatch):
    # profile_of/lift_of memoize per (class, source path, source text):
    # after one pass, building a dense engine re-parses nothing.
    from repro.check import costmodel, vectorize

    profile = costmodel.profile_of(PageRankProgram)
    verdict = vectorize.lift_of(PageRankProgram(iterations=3))

    def no_reparse(*args, **kwargs):
        raise AssertionError("static analysis ran again")

    monkeypatch.setattr(costmodel, "profile_source", no_reparse)
    monkeypatch.setattr(vectorize, "lift_source", no_reparse)
    assert costmodel.profile_of(PageRankProgram(iterations=7)) is profile
    assert vectorize.lift_of(PageRankProgram) is verdict
    engine = DenseRefEngine(
        JobSpec(program=PageRankProgram(iterations=3), graph=directed,
                num_workers=2)
    )
    assert engine.plan is not None

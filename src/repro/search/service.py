"""The search service: evaluate specs, rank them, record the session.

One candidate evaluation is two deterministic passes over the same
workload execution:

* :func:`~repro.analysis.simulate.simulate_spec` replays the trace for
  the instruction total and the max-heap footprint;
* :func:`~repro.obs.attrib.attribute_sites` prices fragmentation
  byte-time through the same object-lifetime fold — which means a
  streaming store built with ``jobs > 1`` shards both passes over the
  v3 chunk index, so ``--jobs`` parallelism comes from the existing
  pool rather than a second scheduler, and the recorded numbers cannot
  depend on the worker count.

Grid mode scores every spec the space enumerates; evolve mode walks the
space with the seeded driver in :mod:`repro.search.evolve`.  Either
way every distinct canonical spec is evaluated once, scored against the
paper-default baseline, and ranked by (score, spec hash).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.alloc.spec import PAPER_DEFAULT_SPEC, AllocatorSpec
from repro.alloc.costs import DEFAULT_COST_MODEL, CostModel
from repro.analysis.experiments import EVAL_DATASET
from repro.analysis.simulate import simulate_spec
from repro.obs.attrib import attribute_sites
from repro.obs.spans import TRACER
from repro.search.evolve import (
    DEFAULT_GENERATIONS,
    DEFAULT_POPULATION,
    evolve,
)
from repro.search.objective import (
    DEFAULT_OBJECTIVE,
    CandidateMetrics,
    Objective,
)
from repro.search.results import (
    SearchSession,
    search_provenance,
)
from repro.search.space import DEFAULT_SPACE, SearchSpace

__all__ = ["SearchError", "SEARCH_MODES", "evaluate_spec", "run_search"]

#: How candidates are generated from the space.
SEARCH_MODES = ("grid", "evolve")


class SearchError(ValueError):
    """A search request that cannot be run."""


def evaluate_spec(
    store,
    program: str,
    spec: AllocatorSpec,
    dataset: str = EVAL_DATASET,
    model: CostModel = DEFAULT_COST_MODEL,
) -> CandidateMetrics:
    """Measure one spec on one workload execution.

    The predictor is resolved the way the spec asks
    (:meth:`TraceStore.predictor_for`), then both the replay and the
    attribution consume the store's event source — materialized or
    sharded-streaming, whichever the store was built for.  Attribution
    prices the source's memoized lifetime census, so only the first
    candidate at a threshold pays an object pass for it.
    """
    predictor = store.predictor_for(program, spec)
    with TRACER.span(
        "search.simulate", cat="search", spec=spec.spec_hash()
    ):
        sim = simulate_spec(
            store.source(program, dataset), spec, predictor, model=model
        )
    with TRACER.span(
        "search.attribute", cat="search", spec=spec.spec_hash()
    ):
        profile = attribute_sites(
            store.source(program, dataset),
            predictor=predictor,
            model=model,
            spec=spec,
        )
    return CandidateMetrics(
        total_instr=(sim.cost.total_alloc_instr + sim.cost.total_free_instr),
        max_heap_size=sim.max_heap_size,
        frag_byte_time=profile.totals().frag_byte_time,
    )


def _candidate_entry(
    spec: AllocatorSpec,
    metrics: CandidateMetrics,
    score: float,
    ratios: Dict[str, float],
) -> Dict[str, Any]:
    return {
        "spec": spec.to_dict(),
        "spec_hash": spec.spec_hash(),
        "describe": spec.describe(),
        "metrics": metrics.to_dict(),
        "ratios": {name: round(value, 6) for name, value in ratios.items()},
        "score": round(score, 6),
    }


def run_search(
    store,
    program: str,
    space: SearchSpace = DEFAULT_SPACE,
    objective: Objective = DEFAULT_OBJECTIVE,
    mode: str = "grid",
    seed: int = 0,
    generations: int = DEFAULT_GENERATIONS,
    population: int = DEFAULT_POPULATION,
    dataset: str = EVAL_DATASET,
    model: CostModel = DEFAULT_COST_MODEL,
    seq: int = 1,
) -> SearchSession:
    """Run one design-space search and return the ranked session."""
    if mode not in SEARCH_MODES:
        raise SearchError(
            f"unknown search mode {mode!r}; "
            f"expected one of {', '.join(SEARCH_MODES)}"
        )

    with TRACER.span("search.baseline", cat="search"):
        baseline_metrics = evaluate_spec(
            store, program, PAPER_DEFAULT_SPEC, dataset=dataset, model=model
        )

    cache: Dict[str, Any] = {}

    def evaluate(spec: AllocatorSpec) -> float:
        key = spec.spec_hash()
        entry = cache.get(key)
        if entry is None:
            metrics = evaluate_spec(
                store, program, spec, dataset=dataset, model=model
            )
            score = objective.score(metrics, baseline_metrics)
            entry = (spec, metrics, score)
            cache[key] = entry
        return entry[2]

    with TRACER.span("search.candidates", cat="search", mode=mode):
        if mode == "grid":
            for spec in space.specs():
                evaluate(spec)
        else:
            evolve(
                space, evaluate,
                seed=seed, generations=generations, population=population,
            )

    ranked = sorted(
        cache.values(),
        key=lambda entry: (entry[2], entry[0].spec_hash()),
    )
    results = []
    for rank, (spec, metrics, score) in enumerate(ranked, start=1):
        entry = _candidate_entry(
            spec, metrics, score, objective.ratios(metrics, baseline_metrics)
        )
        entry["rank"] = rank
        results.append(entry)

    return SearchSession(
        seq=seq,
        program=program,
        dataset=dataset,
        scale=store.scale,
        mode=mode,
        seed=seed,
        objective=objective.to_dict(),
        space=space.to_dict(),
        space_hash=space.space_hash(),
        baseline={
            "spec": PAPER_DEFAULT_SPEC.to_dict(),
            "spec_hash": PAPER_DEFAULT_SPEC.spec_hash(),
            "metrics": baseline_metrics.to_dict(),
        },
        results=results,
        provenance=search_provenance(),
    )

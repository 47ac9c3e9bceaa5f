"""The traced run: spans around layer calls, and the per-layer ledger.

A traced run makes four measurements, in this order:

1. the workload, with its set-up and every second cycle traced: the
   benchmark's own code records a span around each call it makes into a
   layer (``workloads.run``, ``tracefile.write``, ``core.train``,
   ``alloc.<kind>``, ...) and counts the full passes made over each
   trace inside those calls.  The ratio of traced to untraced cycle
   times is the tracing overhead;
2. the pass-difference ledger over the test traces the workload read or
   wrote.  Each layer's time is the difference between timed passes over
   the same trace, never a per-event timer:

   ============================  =====================================
   pass                          layer time
   ============================  =====================================
   decode only                   ``stream.decode_s``
   decode + ``predicts_short_    ``core.keying_s`` (minus decode)
   lived`` on each alloc
   bare replay, per allocator    ``alloc.<kind>_s`` (minus decode, and
                                 minus keying for the arena)
   probed replay                 ``telemetry.overhead_s`` (minus bare)
   ``attribute_sites``           ``attrib.fold_s`` (minus keying)
   ``train_site_predictor``      ``core.train_s`` (minus decode)
   ``evaluate``                  ``core.evaluate_s`` (minus decode)
   ============================  =====================================

3. two evolve-mode searches on the seed's gawk test execution, timing
   each candidate evaluation (``search.candidate``) from outside.

Spans stay in memory and are written to ``.perfbench/spans-*.json`` at
the end.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

import repro.search.service as search_service
from repro.alloc.spec import PAPER_DEFAULT_SPEC
from repro.analysis.experiments import TraceStore
from repro.analysis.simulate import simulate_spec
from repro.analysis.trace_cache import TraceCache
from repro.core.predictor import evaluate, train_site_predictor
from repro.obs.attrib import attribute_sites
from repro.obs.metrics import Metrics
from repro.obs.telemetry import Telemetry
from repro.runtime.stream.protocol import EV_ALLOC, TraceEventSource
from repro.runtime.stream.v3 import TraceFileSource
from repro.runtime.tracefile import load_trace, open_trace_stream
from repro.search import run_search

from perfbench.bench import (
    REPLAY_SPECS,
    SEARCH_PROGRAM,
    SEARCH_SCALE,
    WORKLOADS,
    Run,
)

__all__ = ["Spans", "traced_run"]

LEDGER_REPEATS = 3
SEARCH_ROUNDS = 2


class Spans:
    """In-memory spans (name, start, end, parent) and trace-pass counts.

    Spans are recorded only while :attr:`on`; a pass over a trace is
    counted only when it starts inside a span.
    """

    def __init__(self):
        self.records: List[list] = []
        self.stack: List[int] = []
        self.origin = time.perf_counter()
        self.on = True
        #: Full passes per (program, dataset) since the first cycle.
        self.passes: Dict[Tuple[str, str], int] = {}

    def begin_cycle(self, index: int) -> None:
        """Trace every second cycle; count passes from the first one."""
        if index == 0:
            self.passes.clear()
        self.on = index % 2 == 1

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        index = len(self.records)
        record = [name, time.perf_counter(), None, parent]
        self.records.append(record)
        self.stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _ in self.records
                if n == name]

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([
            {"name": name, "start_s": start - self.origin,
             "end_s": end - self.origin, "parent": parent}
            for name, start, end, parent in self.records
        ]))


@contextmanager
def instrumented(spans: Spans):
    """Count trace passes and span each search candidate from outside.

    For the duration of the block, wraps the public ``events`` method of
    both trace sources and the three calls ``run_search`` makes per
    candidate.  Yields the list that collects the spec hash of every
    ``evaluate_spec`` call.
    """
    hashes: List[str] = []
    saved = []

    def patch(owner, name, wrapper):
        original = getattr(owner, name)
        saved.append((owner, name, original))
        setattr(owner, name, wrapper(original))

    def counting(original):
        def events(self):
            if spans.stack:
                key = (self.header.program, self.header.dataset)
                spans.passes[key] = spans.passes.get(key, 0) + 1
            return original(self)
        return events

    def spanned(name, record_spec=False):
        def wrap(original):
            def call(*args, **kwargs):
                if not spans.on:
                    return original(*args, **kwargs)
                if record_spec:
                    hashes.append(args[2].spec_hash())
                with spans.span(name):
                    return original(*args, **kwargs)
            return call
        return wrap

    patch(TraceFileSource, "events", counting)
    patch(TraceEventSource, "events", counting)
    patch(search_service, "evaluate_spec",
          spanned("search.candidate", record_spec=True))
    patch(search_service, "simulate_spec", spanned("alloc.replay"))
    patch(search_service, "attribute_sites", spanned("attrib.fold"))
    try:
        yield hashes
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _keying_pass(source, predictor) -> None:
    chain_of = source.header.chains.chain
    predicts = predictor.predicts_short_lived
    for ev in source.events():
        if ev[0] == EV_ALLOC:
            predicts(chain_of(ev[2]), ev[3])


def _decode_pass(source, predictor) -> None:
    for _ in source.events():
        pass


def _replay(kind: str, probed: bool):
    spec = REPLAY_SPECS[kind]

    def run(source, predictor):
        return simulate_spec(
            source, spec, predictor if spec.kind == "arena" else None,
            telemetry=Telemetry(metrics=Metrics()) if probed else None,
        )
    return run


PASSES = {
    "decode": _decode_pass,
    "keying": _keying_pass,
    "train": lambda source, predictor: train_site_predictor(source),
    "evaluate": lambda source, predictor: evaluate(predictor, source),
    "attrib": lambda source, predictor: attribute_sites(
        source, predictor=predictor, spec=PAPER_DEFAULT_SPEC),
    **{f"bare_{kind}": _replay(kind, False) for kind in REPLAY_SPECS},
    **{f"probed_{kind}": _replay(kind, True) for kind in REPLAY_SPECS},
}


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def layer_ledger(traces: Dict[Tuple[str, str], Path]):
    """Median seconds per pass, summed over the test traces, plus the
    exact counts the bare replays and the evaluation produce."""
    inputs = []
    for (program, dataset), path in sorted(traces.items()):
        if dataset == "test":
            source = open_trace_stream(path)
            train = open_trace_stream(traces[(program, "train")])
            inputs.append((source, train_site_predictor(train)))
    seconds: Dict[str, List[float]] = {name: [] for name in PASSES}
    for _ in range(LEDGER_REPEATS):
        for name, fn in PASSES.items():
            total = 0.0
            for source, predictor in inputs:
                start = time.perf_counter()
                fn(source, predictor)
                total += time.perf_counter() - start
            seconds[name].append(total)
    median = {name: statistics.median(v) for name, v in seconds.items()}

    heap, instr, true_pct = [], [], []
    allocs = keys = scanned = ff_allocs = arena_allocs = 0
    for source, predictor in inputs:
        arena = PASSES["bare_arena"](source, predictor)
        firstfit = PASSES["bare_firstfit"](source, predictor)
        heap.append(arena.max_heap_size / firstfit.max_heap_size)
        instr.append((arena.cost.per_alloc + arena.cost.per_free)
                     / (firstfit.cost.per_alloc + firstfit.cost.per_free))
        true_pct.append(evaluate(predictor, source).predicted_pct)
        pairs = {(ev[2], ev[3]) for ev in source.events() if ev[0] == EV_ALLOC}
        keys += len(pairs)
        allocs += arena.ops.allocs
        arena_allocs += arena.arena_allocs
        scanned += firstfit.ops.blocks_scanned
        ff_allocs += firstfit.ops.allocs
    bare = sum(median[f"bare_{kind}"] for kind in REPLAY_SPECS)
    probed = sum(median[f"probed_{kind}"] for kind in REPLAY_SPECS)
    decode, keying = median["decode"], median["keying"]
    return {
        "stream.decode_s": (decode, "s"),
        "core.keying_s": (keying - decode, "s"),
        "core.train_s": (median["train"] - decode, "s"),
        "core.evaluate_s": (median["evaluate"] - decode, "s"),
        "core.keys_per_alloc": (keys / allocs, "ratio"),
        "alloc.arena_s": (median["bare_arena"] - keying, "s"),
        "alloc.firstfit_s": (median["bare_firstfit"] - decode, "s"),
        "alloc.bsd_s": (median["bare_bsd"] - decode, "s"),
        "alloc.blocks_scanned_per_alloc": (scanned / ff_allocs, "count"),
        "alloc.arena_alloc_pct": (100.0 * arena_allocs / allocs, "%"),
        "telemetry.overhead_s": (probed - bare, "s"),
        "telemetry.overhead_ratio": ((probed - bare) / bare, "ratio"),
        "attrib.fold_s": (median["attrib"] - keying, "s"),
        "model.arena_heap_ratio": (_geomean(heap), "ratio"),
        "model.arena_instr_ratio": (_geomean(instr), "ratio"),
        "model.true_prediction_pct": (statistics.mean(true_pct), "%"),
    }


def _tail(samples: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    its value (the median when there are fewer than twenty samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def search_ledger(run: Run, traces: Dict[Tuple[str, str], Path],
                  spans: Spans):
    """Span each candidate of evolve searches on gawk's test trace."""
    cache = TraceCache(run.scratch("ledger-cache"), metrics=Metrics())
    for dataset in ("train", "test"):
        cache.store(load_trace(traces[(SEARCH_PROGRAM, dataset)]),
                    SEARCH_SCALE)
    rates, unique, best = [], [], None
    spans.on = True
    with instrumented(spans) as hashes:
        for _ in range(SEARCH_ROUNDS):
            hashes.clear()
            store = TraceStore(SEARCH_SCALE, cache=cache, metrics=Metrics())
            start = time.perf_counter()
            with spans.span("search.run"):
                session = run_search(store, SEARCH_PROGRAM, mode="evolve",
                                     seed=run.seed)
            rates.append(len(session.results)
                         / (time.perf_counter() - start))
            unique.append(len(set(hashes)) / len(hashes))
            best = session.results[0]["score"]
    samples = spans.durations("search.candidate")
    pct, tail = _tail(samples)
    return {
        "search.candidate_p50_s": (statistics.median(samples), "s"),
        "search.candidate_tail_s": (tail, "s"),
        "search.candidate_tail_pct": (pct, "%"),
        "search.candidate_samples": (float(len(samples)), "count"),
        "search.unique_frac": (statistics.median(unique), "ratio"),
        "search.candidates_per_s": (statistics.median(rates), "1/s"),
        "search.best_score": (best, "ratio"),
    }


def traced_run(workload: str, run: Run, out_dir: Path):
    """Run ``workload`` with every second cycle traced, then the ledger.

    Returns the workload's result and the per-layer metrics.
    """
    spans = Spans()
    measured = replace(run, spans=spans)
    with instrumented(spans):
        result = WORKLOADS[workload](measured)
    untraced, traced = result.cycles[0::2], result.cycles[1::2]
    # Each traced set-up or capture cycle runs the executions once.
    captures = len(spans.durations("workloads.run")) / len(result.traces)
    metrics: Dict[str, Tuple[float, str]] = {
        "workloads.run_s": (
            sum(spans.durations("workloads.run")) / captures, "s"),
        "workloads.events": (float(result.trace_events), "count"),
        "tracefile.write_s": (
            sum(spans.durations("tracefile.write")) / captures, "s"),
        "stream.decodes_per_trace": (
            sum(spans.passes.values()) / len(result.traces) / len(traced),
            "count"),
        "bench.trace_overhead_ratio": (
            statistics.median(traced) / statistics.median(untraced),
            "ratio"),
        "bench.reference_s": (
            statistics.median(measured.references), "s"),
    }
    metrics.update(layer_ledger(result.traces))
    metrics.update(search_ledger(run, result.traces, spans))
    spans.write(out_dir / f"spans-{workload}-seed{run.seed}.json")
    return result, dict(sorted(metrics.items()))

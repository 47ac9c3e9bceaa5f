"""The benchmark's three workloads: set-up, timed cycles and output checks.

Each workload is one function taking a :class:`Run` and returning a
:class:`Result`.  A workload sets up several times (the median is
``setup_s``) and repeats *cycles* of its work until the run's time is
spent.  A cycle is made of *units*; a unit that raises or whose
output fails a check is counted as failed and the run goes on.

* ``capture``: each cycle runs the seed's ten executions on fresh traced
  heaps and writes every trace with ``save_trace`` into an empty
  directory.  One unit per execution.
* ``paper``: set-up captures the ten traces; each cycle runs the
  per-trace pass mix of ``repro-alloc table all`` over them.  One unit
  per program.
* ``search``: set-up captures gawk's two executions into a private trace
  cache; each cycle is one evolve-mode ``run_search`` on gawk's test
  execution through a fresh ``TraceStore`` over that cache.  One unit
  per cycle.

Only the benchmark's calls into the program's layers are timed, each
one at reference speed (see :meth:`Run.call`).  Checks, digests and the
bookkeeping between them run outside the timed region.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.alloc.spec import BSD_SPEC, FIRSTFIT_SPEC, PAPER_DEFAULT_SPEC
from repro.alloc.spec import AllocatorSpec
from repro.analysis.experiments import TraceStore
from repro.analysis.simulate import simulate_spec
from repro.analysis.trace_cache import TraceCache
from repro.core.database import save_predictor
from repro.core.predictor import (
    evaluate,
    train_site_predictor,
    train_size_only_predictor,
)
from repro.core.profile import build_profile
from repro.obs.attrib import attribute_sites
from repro.obs.metrics import Metrics
from repro.obs.telemetry import Telemetry
from repro.runtime.events import Trace
from repro.runtime.stream.protocol import EV_FREE, EventSource, TraceEventSource
from repro.runtime.tracefile import open_trace_stream, save_trace
import repro.search.service as search_service
from repro.search import run_search

from perfbench.inputs import SCALE, Execution, executions

__all__ = [
    "CHAIN_LENGTHS",
    "REPLAY_SPECS",
    "SEARCH_PROGRAM",
    "SEARCH_SCALE",
    "CheckError",
    "Result",
    "Run",
    "WORKLOADS",
]

SETUP_REPEATS = 5
#: Iterations of the reference loop timed before every layer call.  A
#: shared host runs the same code at speeds that drift by up to 2x over
#: minutes; dividing a call's time by the loop's time just before it
#: states the call's cost at one reference speed, so the drift cancels.
REFERENCE_LOOPS = 100_000
#: The reference loop's seconds at the speed ``events_per_s`` and
#: ``setup_s`` are stated at (its uncontended time on a 2-core Xeon VM).
REFERENCE_S = 0.015
#: Cycles a run makes even when they outlast ``--seconds``.
MIN_CYCLES = 2
# The pass mix is pinned here rather than imported from the program
# (``TABLE6_LENGTHS``, ``BENCH_SPECS``), so that a change to the program
# cannot change the work it is measured on.

#: The chain lengths Table 6 trains besides the full chain.
CHAIN_LENGTHS = (1, 2, 3, 4, 5, 6, 7)
#: The replays of the paper pass mix, by the allocator layer they time.
REPLAY_SPECS: Dict[str, AllocatorSpec] = {
    "arena": PAPER_DEFAULT_SPEC,
    "firstfit": FIRSTFIT_SPEC,
    "bsd": BSD_SPEC,
}
SEARCH_PROGRAM = "gawk"
#: The scale a search run's traces are filed under in its trace cache.
SEARCH_SCALE = SCALE


class CheckError(Exception):
    """A program output that differs from what it must be."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckError(what)


@dataclass
class Run:
    """One benchmark run's settings and its private scratch directory."""

    seed: int
    seconds: float
    work: Path
    #: A layer call (``"tracefile.write"``, ``"core.train"``) to make
    #: twice each time, for the self-test.
    slow_layer: Optional[str] = None
    #: The traced run's span recorder (see :mod:`perfbench.ledger`).
    spans: Optional["Spans"] = None
    #: Seconds of every layer call so far, at reference speed and wall.
    timed: float = 0.0
    wall: float = 0.0
    #: Seconds of every reference loop timed.
    references: List[float] = field(default_factory=list)
    #: The open segment of the current layer call: (reference, start).
    segment: Tuple[float, float] = (0.0, 0.0)

    def scratch(self, name: str) -> Path:
        """A fresh, empty directory under the run's scratch space."""
        path = self.work / name
        path.mkdir(parents=True)
        return path

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``: a call into layer ``name``, inside a
        span when tracing, and made twice when it is the slow layer.

        The reference loop is timed just before the call, and the call's
        seconds are added to :attr:`timed` at reference speed and to
        :attr:`wall` as measured.
        """
        self._open_segment()
        try:
            if name == self.slow_layer:
                fn(*args, **kwargs)
            if self.spans is None or not self.spans.on:
                return fn(*args, **kwargs)
            with self.spans.span(name):
                return fn(*args, **kwargs)
        finally:
            self._close_segment()

    def resample(self) -> None:
        """State the rest of the current layer call at a fresh reference
        sample; the sample itself is not timed."""
        self._close_segment()
        self._open_segment()

    def _open_segment(self) -> None:
        reference = reference_s()
        self.references.append(reference)
        self.segment = (reference, time.perf_counter())

    def _close_segment(self) -> None:
        reference, start = self.segment
        secs = time.perf_counter() - start
        self.wall += secs
        self.timed += at_reference_speed(secs, reference)


@dataclass
class Result:
    """What one workload run measured."""

    setup_s: List[float]
    #: Timed seconds per cycle.
    cycles: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    trace_bytes: int = 0
    trace_events: int = 0
    #: The traces the workload captured (for the per-layer ledger).
    traces: Dict[Tuple[str, str], Path] = field(default_factory=dict)
    #: Seconds at reference speed of each unit that passed, per cycle.
    unit_secs: Dict[str, List[float]] = field(default_factory=dict)
    #: Input events each unit covers.
    unit_events: Dict[str, int] = field(default_factory=dict)

    def unit(self, name: str, fn: Callable, *args) -> Optional[object]:
        """Run one unit; a unit that raises counts as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed unit must not abort the run
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def run_units(self, run: Run, units) -> float:
        """Run one cycle's ``(name, fn, *args)`` units, each returning the
        input events it covers; a unit's time is that of the layer calls
        it makes through ``run``.  Returns the cycle's wall seconds."""
        total = 0.0
        for name, fn, *args in units:
            timed, wall = run.timed, run.wall
            events = self.unit(name, fn, *args)
            if events is not None:
                self.unit_secs.setdefault(name, []).append(run.timed - timed)
                self.unit_events[name] = events
                total += run.wall - wall
        return total

    def events_per_s(self) -> float:
        """Input events per second at reference speed: over the sum of
        each unit's median time at reference speed."""
        secs = sum(statistics.median(v) for v in self.unit_secs.values())
        return sum(self.unit_events.values()) / secs if secs else 0.0

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "events_per_s": (self.events_per_s(), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ok_frac": (1.0 - self.failed / self.attempted, "ratio"),
            "trace_bytes_per_event": (
                self.trace_bytes / max(1, self.trace_events), "B"
            ),
        }


def reference_s() -> float:
    """Seconds this machine takes, right now, for the reference loop."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(REFERENCE_LOOPS):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - start


def at_reference_speed(secs: float, reference: float) -> float:
    """``secs`` measured while the reference loop took ``reference``,
    stated at the speed where it takes ``REFERENCE_S``."""
    return secs * REFERENCE_S / reference


@contextmanager
def resampled_per_candidate(run: Run):
    """Take a fresh reference sample before each ``evaluate_spec`` call
    ``run_search`` makes while the block runs: a search is one layer call
    of seconds, which one sample before it cannot follow."""
    original = search_service.evaluate_spec

    def evaluate_spec(*args, **kwargs):
        run.resample()
        return original(*args, **kwargs)

    search_service.evaluate_spec = evaluate_spec
    try:
        yield
    finally:
        search_service.evaluate_spec = original


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _event_counts(trace: Trace) -> Tuple[int, int]:
    """(allocations, frees) a replay of ``trace`` must perform."""
    frees = sum(1 for ev in TraceEventSource(trace).events()
                if ev[0] == EV_FREE)
    return trace.total_objects, frees


def _check_decode(trace: Trace, path: Path) -> None:
    """The written file must decode to exactly the captured trace."""
    source = open_trace_stream(path)
    captured = TraceEventSource(trace)
    expect(source.header.program == trace.program
           and source.header.dataset == trace.dataset, "header identity")
    expect(source.header.chains.to_list() == trace.chains.to_list(),
           "decoded chain table differs from the captured one")
    expect(all(a == b for a, b in zip_longest(source.events(),
                                              captured.events())),
           "decoded events differ from the captured ones")
    expect(source.summary == captured.summary,
           "decoded summary differs from the captured one")


def _deterministic(ref: Dict[str, str], key: str, digest: str) -> None:
    """Outputs of one unit must be identical in every cycle of a run."""
    first = ref.setdefault(key, digest)
    expect(first == digest, f"{key}: output differs from the first cycle")


def _cycles(run: Run, result: Result, cycle: Callable[[], float]):
    """Repeat ``cycle`` while another one fits in the run's seconds.

    In a traced run every second cycle is traced, starting with the
    second, so traced and untraced cycles interleave.
    """
    start = time.perf_counter()
    while True:
        gc.collect()
        if run.spans is not None:
            run.spans.begin_cycle(len(result.cycles))
        began = time.perf_counter()
        result.cycles.append(cycle())
        now = time.perf_counter()
        if (len(result.cycles) >= MIN_CYCLES
                and now + (now - began) - start > run.seconds):
            return


# ----------------------------------------------------------------------
# Capture: the write side
# ----------------------------------------------------------------------

def _file_name(execution: Execution) -> str:
    return f"{execution.program}-{execution.dataset}.rtr3"


def _capture_one(run: Run, execution: Execution, path: Path) -> Trace:
    """Run and write one execution; returns its trace."""
    path.parent.mkdir(parents=True, exist_ok=True)
    trace = run.call("workloads.run", execution.run)
    run.call("tracefile.write", save_trace, trace, path)
    return trace


def capture(run: Run) -> Result:
    result = Result(setup_s=[])
    ref: Dict[str, str] = {}

    def unit(execution: Execution, directory: Path) -> int:
        path = directory / _file_name(execution)
        trace = _capture_one(run, execution, path)
        data = path.read_bytes()
        key = (execution.program, execution.dataset)
        if key not in result.traces:
            result.trace_bytes += len(data)
            result.trace_events += trace.event_count
            result.traces[key] = path
        name = f"{execution.program}-{execution.dataset}"
        if name not in ref:
            # Decode until one cycle's file checks out; later files must
            # then be byte-identical to it.
            _check_decode(trace, path)
        _deterministic(ref, name, _digest(data))
        return trace.event_count

    def cycle() -> float:
        # Set-up is input generation: milliseconds, so it is repeated
        # before every cycle and its median spans the whole run.
        timed = run.timed
        plan = run.call("workloads.inputs", executions, run.seed)
        result.setup_s.append(run.timed - timed)
        directory = run.work / f"capture-{len(result.cycles)}"
        return result.run_units(run, (
            (f"capture {e.program}-{e.dataset}", unit, e, directory)
            for e in plan))

    _cycles(run, result, cycle)
    return result


# ----------------------------------------------------------------------
# Paper: the read side
# ----------------------------------------------------------------------

@dataclass
class Captured:
    """The traces one set-up wrote, with the counts replays must match."""

    paths: Dict[Tuple[str, str], Path]
    counts: Dict[Tuple[str, str], Tuple[int, int]]
    events: Dict[Tuple[str, str], int]
    trace_bytes: int


def _setup(run: Run, plan: List[Execution],
           place: Callable[[int, Execution], Path]):
    """Capture ``plan`` ``SETUP_REPEATS`` times; ``place(index, execution)``
    is where set-up ``index`` writes each trace.  Returns the set-up times
    (of the capture calls, at reference speed) and what the last set-up
    wrote."""
    times = []
    for index in range(SETUP_REPEATS):
        timed = run.timed
        paths, counts, events = {}, {}, {}
        for execution in plan:
            path = place(index, execution)
            trace = _capture_one(run, execution, path)
            key = (execution.program, execution.dataset)
            paths[key] = path
            counts[key] = _event_counts(trace)
            events[key] = trace.event_count
        times.append(run.timed - timed)
    size = sum(path.stat().st_size for path in paths.values())
    return times, Captured(paths, counts, events, size)


def _check_replay(sim, counts: Tuple[int, int], name: str) -> None:
    allocs, frees = counts
    expect(sim.ops.allocs == allocs, f"{name}: replayed allocs != trace")
    expect(sim.ops.frees == frees, f"{name}: replayed frees != trace")
    if sim.general_ops is not None:
        expect(sim.arena_allocs + sim.general_allocs == sim.ops.allocs,
               f"{name}: arena + general allocs != allocs")


def paper_passes(run: Run, test: EventSource, train: EventSource):
    """The per-trace pass mix of ``table all`` for one program.

    Returns the trained predictors, the evaluations and the replays, in
    a fixed order, for the checks.
    """
    call = run.call
    profile = call("core.train", build_profile, test)
    true = call("core.train", train_site_predictor, train)
    predictors = [
        call("core.train", train_site_predictor, test),
        true,
        call("core.train", train_size_only_predictor, test),
    ] + [
        call("core.train", train_site_predictor, test, chain_length=length)
        for length in CHAIN_LENGTHS
    ]
    evaluations = [call("core.evaluate", evaluate, p, test)
                   for p in predictors]
    sims = {
        kind: call(f"alloc.{kind}", simulate_spec, test, spec,
                    true if spec.kind == "arena" else None,
                    telemetry=Telemetry(metrics=Metrics()))
        for kind, spec in REPLAY_SPECS.items()
    }
    return profile, predictors, evaluations, sims


def paper(run: Run) -> Result:
    plan = executions(run.seed)
    setup, captured = _setup(
        run, plan, lambda index, e: run.work / f"paper-{index}" / _file_name(e))
    result = Result(setup_s=setup, trace_bytes=captured.trace_bytes,
                    trace_events=sum(captured.events.values()),
                    traces=captured.paths)
    programs = list(dict.fromkeys(e.program for e in plan))
    db_dir = run.scratch("paper-db")
    ref: Dict[str, str] = {}

    def unit(program: str) -> int:
        test_key, train_key = (program, "test"), (program, "train")
        test = open_trace_stream(captured.paths[test_key])
        train = open_trace_stream(captured.paths[train_key])
        profile, predictors, evaluations, sims = paper_passes(run, test, train)
        for kind, sim in sims.items():
            _check_replay(sim, captured.counts[test_key], f"{program} {kind}")
        end_time = test.summary.end_time
        for evaluation in evaluations:
            expect(evaluation.total_bytes == end_time,
                   f"{program}: evaluated bytes != trace bytes")
        dbs = []
        for index, predictor in enumerate(predictors):
            path = db_dir / f"{program}-{index}.sites"
            save_predictor(predictor, path)
            dbs.append(path.read_bytes())
        _deterministic(ref, program, _digest(
            *dbs, len(profile), evaluations, sorted(sims.items())))
        return captured.events[test_key] + captured.events[train_key]

    def cycle() -> float:
        return result.run_units(run, ((f"paper {p}", unit, p)
                                      for p in programs))

    _cycles(run, result, cycle)
    return result


# ----------------------------------------------------------------------
# Search: one trace, many specs
# ----------------------------------------------------------------------

def search(run: Run) -> Result:
    plan = [e for e in executions(run.seed) if e.program == SEARCH_PROGRAM]
    # Each set-up fills its own trace cache, at the paths the cache reads.
    caches = [TraceCache(run.work / f"search-{index}", metrics=Metrics())
              for index in range(SETUP_REPEATS)]
    setup, captured = _setup(run, plan, lambda index, e: caches[index]
                             .entry_path(e.program, e.dataset, SEARCH_SCALE))
    cache = caches[-1]
    test_key = (SEARCH_PROGRAM, "test")
    result = Result(setup_s=setup, trace_bytes=captured.trace_bytes,
                    trace_events=sum(captured.events.values()),
                    traces=captured.paths)
    ref: Dict[str, str] = {}

    def unit() -> int:
        store = TraceStore(SEARCH_SCALE, cache=cache, metrics=Metrics())
        with resampled_per_candidate(run):
            session = run.call("search.run", run_search, store,
                                SEARCH_PROGRAM, mode="evolve", seed=run.seed)
        expect(len(session.results) > 0, "search ranked no candidates")
        ranking = [(r["spec_hash"], r["score"], r["metrics"])
                   for r in session.results]
        _deterministic(ref, "ranking", _digest(ranking))
        # Re-measure the winner independently: the replay must perform
        # every allocation and free, and attribution must charge each
        # replayed allocation exactly once.
        best = session.results[0]
        spec = AllocatorSpec.from_dict(best["spec"])
        predictor = store.predictor_for(SEARCH_PROGRAM, spec)
        source = store.source(SEARCH_PROGRAM)
        sim = simulate_spec(source, spec, predictor)
        _check_replay(sim, captured.counts[test_key], "search best")
        totals = attribute_sites(source, predictor=predictor,
                                 spec=spec).totals()
        expect(totals.objects == sim.ops.allocs,
               "attribution objects != replayed allocs")
        expect(best["metrics"] == {
            "total_instr": sim.cost.total_alloc_instr
            + sim.cost.total_free_instr,
            "max_heap_size": sim.max_heap_size,
            "frag_byte_time": totals.frag_byte_time,
        }, "session metrics differ from an independent evaluation")
        # Each evaluate_spec call, the baseline's and every unique
        # candidate's, replays the whole trace once.
        return captured.events[test_key] * (1 + len(session.results))

    def cycle() -> float:
        return result.run_units(run, [("search", unit)])

    _cycles(run, result, cycle)
    return result


WORKLOADS: Dict[str, Callable[[Run], Result]] = {
    "capture": capture,
    "paper": paper,
    "search": search,
}

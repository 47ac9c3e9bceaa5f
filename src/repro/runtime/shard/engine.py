"""Map/reduce over shards with a live-object handoff frontier.

The map side (:func:`_shard_worker`) replays one shard's chunks and
folds every object whose alloc *and* free both fall inside the shard.
Objects that cross the boundary come back raw: ``opens`` (allocated
here, not freed here) and ``closes`` (freed here, allocated earlier).

The reduce side walks shards in trace order carrying the *frontier* —
the live-object map at each shard boundary, exactly the dict the serial
:func:`~repro.runtime.stream.protocol.iter_object_lifetimes` pass would
hold at that point in the stream.  Each shard's closes resolve against
the frontier (allocated in shard i, freed in shard j > i), then its
opens join it.  Whatever survives the last shard is the never-freed
set, folded with the trace convention (death at ``summary.end_time``,
touches from ``summary.unfreed_touches``) in object-id order — the same
tail the serial iterator emits.

Determinism is structural: every object is folded exactly once with the
same ``(obj_id, chain_id, size, birth, death, touches)`` record the
serial :func:`~repro.runtime.stream.protocol.iter_object_records` pass
computes, and :class:`~repro.runtime.shard.folds.LifetimeFold`
add_object/merge are order-independent by contract — so the merged fold
state equals the serial fold state, not just approximately but field for
field.  Lifetime-only folds see ``death - birth`` through the default
``add_object`` -> ``add`` collapse; position-aware folds (windowed time
series) read the absolute byte-times directly.

:func:`lifetime_census` is the memoized entry point for the one
lifetime-only fold, :class:`~repro.runtime.shard.folds.PairCensusFold`:
every trainer, evaluation, oracle and attribution call at one threshold
reads the same census, so a trace pays one object pass per threshold.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.obs.spans import TRACER
from repro.runtime.events import Trace
from repro.runtime.stream.protocol import (
    EV_ALLOC,
    EV_FREE,
    EventSource,
    TraceEventSource,
    as_event_source,
    iter_object_records,
    orphan_free_error,
)
from repro.runtime.stream.v3 import TraceFileSource, read_chunk_events
from repro.runtime.shard.folds import LifetimeFold, PairCensusFold
from repro.runtime.shard.plan import Shard, plan_shards

__all__ = ["fold_object_lifetimes", "lifetime_census"]

#: opens: obj_id -> (chain_id, size, birth); closes: obj_id -> (death, touches)
_Opens = Dict[int, Tuple[int, int, int]]
_Closes = Dict[int, Tuple[int, int]]


def _shard_worker(
    path: str,
    data_end: int,
    shard: Shard,
    fold: LifetimeFold,
    trace_spans: bool = False,
) -> Tuple[LifetimeFold, _Opens, _Closes, Optional[List[Dict[str, Any]]]]:
    """Replay one shard; fold in-shard objects, report boundary crossers.

    With ``trace_spans`` the worker records its own ``shard.fold`` span
    and ships the snapshot back for the parent tracer to absorb — pool
    processes are reused, so only spans recorded past the entry mark
    belong to this task.
    """
    mark = 0
    if trace_spans:
        TRACER.enable()
        mark = len(TRACER.spans)
    live: _Opens = {}
    closes: _Closes = {}
    add_object = fold.add_object
    with TRACER.span("shard.fold", cat="shard",
                     shard=shard.index, chunks=len(shard.chunks)):
        for offset, count in shard.chunks:
            for ev in read_chunk_events(path, offset, count, data_end):
                tag = ev[0]
                if tag == EV_ALLOC:
                    live[ev[1]] = (ev[2], ev[3], ev[4])
                elif tag == EV_FREE:
                    entry = live.pop(ev[1], None)
                    if entry is None:
                        closes[ev[1]] = (ev[2], ev[3])
                    else:
                        chain_id, size, birth = entry
                        add_object(
                            ev[1], chain_id, size, birth, ev[2], ev[3]
                        )
    span_state = TRACER.state(mark) if trace_spans else None
    return fold, live, closes, span_state


def fold_object_lifetimes(
    source: EventSource,
    fold_factory: Callable[[], LifetimeFold],
    jobs: Optional[int] = None,
) -> LifetimeFold:
    """Fold every object lifetime of ``source``, sharded when possible.

    ``jobs`` defaults to the source's :attr:`shard_jobs` (1 for plain
    sources), and anything that cannot shard — an in-memory source, one
    worker, a single-chunk file — folds the whole stream as one shard in
    a serial pass, so this is always safe to call and is the one fold
    path for serial and sharded consumers alike.
    ``fold_factory`` builds one fresh fold per shard (plus the parent's
    accumulator); it runs in the parent, and its folds travel to the
    workers by pickling.
    """
    if jobs is None:
        jobs = getattr(source, "shard_jobs", 1)
    fold = fold_factory()
    chunk_index = getattr(source, "chunk_index", None)
    if (
        jobs <= 1
        or not isinstance(source, TraceFileSource)
        or chunk_index is None
        or len(chunk_index) <= 1
    ):
        add_object = fold.add_object
        for record in iter_object_records(source):
            add_object(*record)
        return fold

    summary = source.summary
    shards = plan_shards(chunk_index, jobs, event_count=summary.event_count)
    path = source.path
    data_end = source.data_end
    frontier: _Opens = {}
    trace_spans = TRACER.enabled
    with ProcessPoolExecutor(max_workers=min(jobs, len(shards))) as pool:
        futures = [
            pool.submit(_shard_worker, path, data_end, shard,
                        fold_factory(), trace_spans)
            for shard in shards
        ]
        for index, future in enumerate(futures):
            shard_fold, opens, closes, span_state = future.result()
            if span_state:
                TRACER.absorb(span_state, tid=2 + (index % jobs))
            for obj_id, (death, touches) in closes.items():
                entry = frontier.pop(obj_id, None)
                if entry is None:
                    raise orphan_free_error(
                        source, obj_id, " in any earlier shard"
                    )
                chain_id, size, birth = entry
                fold.add_object(obj_id, chain_id, size, birth, death, touches)
            frontier.update(opens)
            fold.merge(shard_fold)
    end_time = summary.end_time
    unfreed_touches = dict(summary.unfreed_touches)
    for obj_id in sorted(frontier):
        chain_id, size, birth = frontier[obj_id]
        fold.add_object(
            obj_id, chain_id, size, birth, end_time,
            unfreed_touches.get(obj_id, 0),
        )
    return fold


def lifetime_census(
    trace: Union[Trace, EventSource], threshold: Optional[int] = None
) -> PairCensusFold:
    """The :class:`PairCensusFold` of ``trace`` at ``threshold``, memoized.

    The first call per (trace, threshold) folds every object through
    :func:`fold_object_lifetimes` (sharded when the source advertises
    ``shard_jobs > 1``); later calls return the same census.  The memo
    lives on the in-memory :class:`~repro.runtime.events.Trace` for a
    wrapped trace — so every fresh :class:`TraceEventSource` shares it —
    and on the source object otherwise (a v3 file source fixes its
    header, footer and chunk index at open time).  Pickling drops it.

    ``threshold=None`` asks only for what no threshold changes (object
    counts, touches, maximum lifetimes): any census already memoized
    serves, else one is folded at the paper's default threshold.
    """
    source = as_event_source(trace)
    owner = source.trace if isinstance(source, TraceEventSource) else source
    memo = owner._census
    if memo is None:
        memo = owner._census = {}
    if threshold is None:
        if memo:
            return next(iter(memo.values()))
        from repro.core.predictor import DEFAULT_THRESHOLD

        threshold = DEFAULT_THRESHOLD
    census = memo.get(threshold)
    if census is None:
        header = source.header
        with TRACER.span("census.fold", cat="shard",
                         program=header.program, dataset=header.dataset,
                         threshold=threshold):
            census = memo[threshold] = fold_object_lifetimes(
                source, partial(PairCensusFold, threshold)
            )
    return census

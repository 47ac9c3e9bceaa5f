"""The typed event protocol behind every trace consumer.

An event stream is::

    StreamHeader                     (prologue: identity + chain table)
    (tag, ...) event tuples          (program order)
    StreamSummary                    (epilogue: aggregate counters)

Events are plain tuples with an integer tag first, chosen for hot-path
speed — the replay loop dispatches on ``ev[0]`` without attribute lookups:

* ``(EV_ALLOC, obj_id, chain_id, size, birth)`` — an object birth.  The
  chain id indexes the header's chain table; carrying size and chain in
  the event is what lets consumers run without a materialized object
  table (and removes the per-event ``size_of``/``chain_of`` lookups the
  old replay loop did).
* ``(EV_FREE, obj_id, death, touches)`` — an explicit free at byte-time
  ``death``; ``touches`` is the object's lifetime reference count.
* ``(EV_TOUCH, obj_id, count)`` — ``count`` heap references to a live
  object (present only when the trace was recorded with touch events).

Object ids are dense in allocation order — the ``n``-th ``EV_ALLOC`` of a
stream carries ``obj_id == n`` — which is what lets
:func:`build_trace` rebuild the parallel-array :class:`Trace` with pure
appends.

An :class:`EventSource` bundles the header, the summary, and a
*re-iterable* event sequence: ``events()`` returns a fresh iterator on
every call, so one source can be replayed several times (Table 8 replays
the same trace against three allocators).  Consumers that accept "a
trace" take either a :class:`~repro.runtime.events.Trace` or an
:class:`EventSource` and normalize via :func:`as_event_source`; the
memory model is then the source's: O(1) extra for a wrapped in-memory
trace, O(live objects + one chunk) for a v3 file
(:class:`~repro.runtime.stream.v3.TraceFileSource`).

Objects never freed follow the trace convention — they die at program
exit (``summary.end_time``).  Their identity is implicit (everything
still in a consumer's live set when the stream ends); only their touch
counts need carrying, which ``summary.unfreed_touches`` does in
O(live-at-exit) space.

A free of an object with no live allocation is a damaged stream: every
pass that pairs frees with allocations raises the same
:class:`~repro.runtime.tracefile.TraceFormatError`
(:func:`orphan_free_error`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.core.sites import ChainTable
from repro.runtime.events import _NEVER_FREED, LiveStats, Trace
from repro.runtime.tracefile import TraceFormatError

__all__ = [
    "EV_ALLOC",
    "EV_FREE",
    "EV_TOUCH",
    "Event",
    "StreamHeader",
    "StreamSummary",
    "EventSource",
    "TraceEventSource",
    "as_event_source",
    "build_trace",
    "iter_object_lifetimes",
    "iter_object_records",
    "orphan_free_error",
    "source_identity",
    "stream_live_stats",
]

#: Event tags.  Values match the low-bit tags packed into
#: :class:`~repro.runtime.events.Trace` event codes, so wrapping a trace
#: is a shift-and-mask, not a translation table.
EV_ALLOC = 0
EV_FREE = 1
EV_TOUCH = 2

Event = Tuple[int, ...]


@dataclass(frozen=True)
class StreamHeader:
    """Stream prologue: execution identity plus the interned chain table.

    Available before the first event, so consumers can resolve
    ``chain_id`` -> :class:`~repro.core.sites.CallChain` while streaming.
    """

    program: str
    dataset: str
    chains: ChainTable
    has_touch_events: bool


@dataclass(frozen=True)
class StreamSummary:
    """Stream epilogue: the aggregate counters a trace carries.

    ``end_time`` is the final byte-time clock value (total bytes
    allocated); ``unfreed_touches`` holds ``(obj_id, touches)`` pairs for
    never-freed objects with a nonzero touch count, sorted by object id —
    by definition O(live objects at exit).
    """

    total_calls: int
    heap_refs: int
    non_heap_refs: int
    end_time: int
    total_objects: int
    event_count: int
    unfreed_touches: Tuple[Tuple[int, int], ...] = ()


class EventSource:
    """One execution's event stream: header, events, summary.

    ``events()`` must return a *fresh* iterator each call.  ``header``
    and ``summary`` are available without consuming events (the v3 file
    format keeps its footer reachable through a fixed-size trailer for
    exactly this reason).

    ``_census`` memoizes the lifetime census per threshold (see
    :func:`~repro.runtime.shard.engine.lifetime_census`); it is a cache,
    not state, so pickling drops it.
    """

    #: Lifetime census memo, created on first use; keyed by threshold.
    _census: Optional[Dict[int, object]] = None

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_census", None)
        return state

    @property
    def header(self) -> StreamHeader:
        raise NotImplementedError

    @property
    def summary(self) -> StreamSummary:
        raise NotImplementedError

    def events(self) -> Iterator[Event]:
        """The event tuples in program order (a fresh iterator per call)."""
        raise NotImplementedError


class TraceEventSource(EventSource):
    """An in-memory :class:`Trace` viewed through the event protocol."""

    def __init__(self, trace: Trace):
        self.trace = trace
        arrays = trace.raw_arrays()
        self._chain_ids = arrays["chain_ids"]
        self._sizes = arrays["sizes"]
        self._births = arrays["births"]
        self._deaths = arrays["deaths"]
        self._touches = arrays["touches"]
        self._codes = arrays["events"]
        self._touch_counts = arrays["touch_counts"]
        self._header = StreamHeader(
            program=trace.program,
            dataset=trace.dataset,
            chains=trace.chains,
            has_touch_events=trace.has_touch_events,
        )
        self._summary: Union[StreamSummary, None] = None

    @property
    def header(self) -> StreamHeader:
        return self._header

    @property
    def summary(self) -> StreamSummary:
        if self._summary is None:
            trace = self.trace
            unfreed = tuple(
                (obj_id, self._touches[obj_id])
                for obj_id in range(len(self._sizes))
                if self._deaths[obj_id] == _NEVER_FREED
                and self._touches[obj_id] != 0
            )
            self._summary = StreamSummary(
                total_calls=trace.total_calls,
                heap_refs=trace.heap_refs,
                non_heap_refs=trace.non_heap_refs,
                end_time=trace.end_time,
                total_objects=trace.total_objects,
                event_count=trace.event_count,
                unfreed_touches=unfreed,
            )
        return self._summary

    def events(self) -> Iterator[Event]:
        chain_ids = self._chain_ids
        sizes = self._sizes
        births = self._births
        deaths = self._deaths
        touches = self._touches
        touch_counts = self._touch_counts
        touch_index = 0
        for code in self._codes:
            tag = code & 3
            obj_id = code >> 2
            if tag == EV_ALLOC:
                yield (
                    EV_ALLOC, obj_id,
                    chain_ids[obj_id], sizes[obj_id], births[obj_id],
                )
            elif tag == EV_FREE:
                yield (EV_FREE, obj_id, deaths[obj_id], touches[obj_id])
            else:
                yield (EV_TOUCH, obj_id, touch_counts[touch_index])
                touch_index += 1


def as_event_source(trace: Union[Trace, EventSource]) -> EventSource:
    """Normalize "a trace" to an :class:`EventSource`.

    Every consumer that historically took a :class:`Trace` funnels
    through this, so materialized and streaming callers share one code
    path (and therefore one set of results).
    """
    if isinstance(trace, EventSource):
        return trace
    if isinstance(trace, Trace):
        return TraceEventSource(trace)
    raise TypeError(
        f"expected a Trace or EventSource, got {type(trace).__name__}"
    )


def source_identity(trace: Union[Trace, EventSource]) -> Tuple[str, str]:
    """``(program, dataset)`` of a trace or source, without wrapping it."""
    header = getattr(trace, "header", None)
    if header is not None:
        return header.program, header.dataset
    return trace.program, trace.dataset


def orphan_free_error(
    source: EventSource, obj_id: int, where: str = ""
) -> TraceFormatError:
    """The error for a free of object ``obj_id`` with no live allocation.

    Named by the file for a file source, else by program/dataset;
    ``where`` narrows the message (the sharded engine says which shards
    it searched).
    """
    name = getattr(source, "path", None)
    if name is None:
        header = source.header
        name = f"{header.program}/{header.dataset}"
    return TraceFormatError(
        f"{name}: free of object {obj_id} with no allocation{where}"
    )


def build_trace(source: EventSource) -> Trace:
    """Materialize an event stream back into an in-memory :class:`Trace`.

    The inverse of :class:`TraceEventSource`: alloc events arrive in
    dense object-id order, so the parallel arrays are rebuilt with pure
    appends and the result round-trips exactly (same events, arrays, and
    aggregates).
    """
    header = source.header
    chain_ids = array("i")
    sizes = array("q")
    births = array("q")
    deaths = array("q")
    touches = array("q")
    events = array("q")
    touch_counts = array("q")
    for ev in source.events():
        tag = ev[0]
        obj_id = ev[1]
        if tag == EV_ALLOC:
            if obj_id != len(sizes):
                raise ValueError(
                    f"alloc events out of order: expected object "
                    f"{len(sizes)}, got {obj_id}"
                )
            chain_ids.append(ev[2])
            sizes.append(ev[3])
            births.append(ev[4])
            deaths.append(_NEVER_FREED)
            touches.append(0)
            events.append((obj_id << 2) | EV_ALLOC)
        elif tag == EV_FREE:
            try:
                deaths[obj_id] = ev[2]
            except IndexError:
                raise orphan_free_error(source, obj_id) from None
            touches[obj_id] = ev[3]
            events.append((obj_id << 2) | EV_FREE)
        else:
            events.append((obj_id << 2) | EV_TOUCH)
            touch_counts.append(ev[2])
    summary = source.summary
    for obj_id, count in summary.unfreed_touches:
        touches[obj_id] = count
    return Trace(
        program=header.program,
        dataset=header.dataset,
        chains=header.chains,
        chain_ids=chain_ids,
        sizes=sizes,
        births=births,
        deaths=deaths,
        touches=touches,
        events=events,
        total_calls=summary.total_calls,
        heap_refs=summary.heap_refs,
        non_heap_refs=summary.non_heap_refs,
        touch_counts=touch_counts,
    )


def iter_object_lifetimes(
    source: EventSource,
) -> Iterator[Tuple[int, int, int, int]]:
    """``(chain_id, size, lifetime, touches)`` per object, one stream pass.

    Freed objects are yielded at their free event (lifetime =
    ``death - birth``); objects never freed are yielded after the stream
    ends, in object-id order, with the trace convention lifetime
    ``end_time - birth``.  The working set is the live-object dict.

    Every per-object accumulation in the pipeline that is
    order-independent — survival curves, lifetime quantile inputs, and
    (through the shard engine's :func:`iter_object_records`, the same
    pass with positions kept) the all-short-lived site folds behind each
    predictor family — is fed from this pass, which is why the streaming
    and materialized paths produce identical predictor databases and
    tables.
    """
    live = {}
    for ev in source.events():
        tag = ev[0]
        if tag == EV_ALLOC:
            live[ev[1]] = (ev[2], ev[3], ev[4])
        elif tag == EV_FREE:
            try:
                chain_id, size, birth = live.pop(ev[1])
            except KeyError:
                raise orphan_free_error(source, ev[1]) from None
            yield (chain_id, size, ev[2] - birth, ev[3])
    summary = source.summary
    end_time = summary.end_time
    unfreed_touches = dict(summary.unfreed_touches)
    for obj_id in sorted(live):
        chain_id, size, birth = live[obj_id]
        yield (chain_id, size, end_time - birth, unfreed_touches.get(obj_id, 0))


def iter_object_records(
    source: EventSource,
) -> Iterator[Tuple[int, int, int, int, int, int]]:
    """``(obj_id, chain_id, size, birth, death, touches)`` per object.

    The positional sibling of :func:`iter_object_lifetimes`: same single
    stream pass, same live-object working set, same never-freed tail
    convention (death at ``summary.end_time``, object-id order) — but the
    absolute birth/death byte-times and the dense object id survive
    instead of being collapsed into a lifetime.  Folds that partition the
    run into windows key on exactly these positions, which is why the
    shard engine feeds its folds through the same tuple shape (see
    :meth:`~repro.runtime.shard.folds.LifetimeFold.add_object`).
    """
    live = {}
    for ev in source.events():
        tag = ev[0]
        if tag == EV_ALLOC:
            live[ev[1]] = (ev[2], ev[3], ev[4])
        elif tag == EV_FREE:
            try:
                chain_id, size, birth = live.pop(ev[1])
            except KeyError:
                raise orphan_free_error(source, ev[1]) from None
            yield (ev[1], chain_id, size, birth, ev[2], ev[3])
    summary = source.summary
    end_time = summary.end_time
    unfreed_touches = dict(summary.unfreed_touches)
    for obj_id in sorted(live):
        chain_id, size, birth = live[obj_id]
        yield (
            obj_id, chain_id, size, birth, end_time,
            unfreed_touches.get(obj_id, 0),
        )


def stream_live_stats(source: EventSource) -> LiveStats:
    """High-water marks of live bytes/objects from one stream pass.

    Same accumulation as :meth:`Trace.live_stats`; a wrapped in-memory
    trace delegates to it so the per-trace cache keeps working.
    """
    if isinstance(source, TraceEventSource):
        return source.trace.live_stats()
    live_sizes = {}
    live_bytes = live_objects = 0
    max_bytes = max_objects = 0
    for ev in source.events():
        tag = ev[0]
        if tag == EV_TOUCH:
            continue
        if tag == EV_FREE:
            try:
                live_bytes -= live_sizes.pop(ev[1])
            except KeyError:
                raise orphan_free_error(source, ev[1]) from None
            live_objects -= 1
        else:
            live_sizes[ev[1]] = ev[3]
            live_bytes += ev[3]
            live_objects += 1
            if live_bytes > max_bytes:
                max_bytes = live_bytes
            if live_objects > max_objects:
                max_objects = live_objects
    return LiveStats(max_bytes, max_objects)

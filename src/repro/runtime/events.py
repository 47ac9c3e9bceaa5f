"""Allocation trace data model.

A :class:`Trace` is the reproduction's stand-in for the address/event traces
Barrett & Zorn generated with Larus' AE tool: the complete record of one
program execution's allocation behaviour.  It holds

* one record per heap object — allocation chain, requested size, birth and
  death on the byte-time clock, and how many times the object was touched;
* the interleaved event sequence (alloc/free in program order), which the
  trace-driven allocator simulations replay;
* aggregate counters: function calls executed (needed to amortize
  call-chain-encryption cost, §5.1) and heap/non-heap memory reference
  counts (needed for the Heap Refs column of Table 2 and the New Ref
  columns of Table 6).

Time is the paper's byte-time: the total number of bytes allocated so far
(§3.2).  An object's lifetime is ``death - birth`` in those units; objects
still live when the program ends have no death time and are treated as
long-lived by every consumer.

Object records are stored as parallel arrays so multi-hundred-thousand
object traces stay cheap; :meth:`Trace.record` materializes a lightweight
view when record-at-a-time access is clearer.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.sites import AllocationSite, CallChain, ChainTable

__all__ = ["ObjectView", "Trace", "TraceBuilder", "LiveStats"]

#: Sentinel stored in the deaths array for objects never freed.
_NEVER_FREED = -1

#: Event tags in the low two bits of each event code (object id above).
TAG_ALLOC = 0
TAG_FREE = 1
TAG_TOUCH = 2


@dataclass(frozen=True)
class ObjectView:
    """Read-only view of one traced object.

    ``lifetime`` follows the paper's convention: bytes allocated between
    birth and death, where an object never explicitly freed dies at
    program exit (its lifetime runs to the end of the trace — this is why
    the paper's maximum lifetimes equal each program's total allocation).
    ``death`` is ``None`` for such objects; ``freed`` distinguishes them.
    """

    obj_id: int
    chain_id: int
    size: int
    birth: int
    death: Optional[int]
    touches: int
    lifetime: int

    @property
    def freed(self) -> bool:
        """Whether the object was freed before the program ended."""
        return self.death is not None


@dataclass(frozen=True)
class LiveStats:
    """High-water marks of live heap data over a whole execution."""

    max_live_bytes: int
    max_live_objects: int


class Trace:
    """One program execution's complete allocation trace."""

    #: Lifetime census memo per threshold, created on first use (see
    #: :func:`repro.runtime.shard.engine.lifetime_census`); shared by
    #: every event-source view of this trace, dropped when pickling.
    _census: Optional[Dict[int, object]] = None

    def __init__(
        self,
        program: str,
        dataset: str,
        chains: ChainTable,
        chain_ids: array,
        sizes: array,
        births: array,
        deaths: array,
        touches: array,
        events: array,
        total_calls: int,
        heap_refs: int,
        non_heap_refs: int,
        touch_counts: array = None,
    ):
        self.program = program
        self.dataset = dataset
        self.chains = chains
        self._chain_ids = chain_ids
        self._sizes = sizes
        self._births = births
        self._deaths = deaths
        self._touches = touches
        self._events = events
        self.total_calls = total_calls
        self.heap_refs = heap_refs
        self.non_heap_refs = non_heap_refs
        self._touch_counts = touch_counts if touch_counts is not None else array("q")
        self._live_stats: Optional[LiveStats] = None
        self._total_bytes: Optional[int] = None

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_census", None)
        return state

    # ------------------------------------------------------------------
    # Object records
    # ------------------------------------------------------------------

    @property
    def total_objects(self) -> int:
        """Number of objects allocated during the execution."""
        return len(self._sizes)

    @property
    def total_bytes(self) -> int:
        """Total bytes allocated; also the final byte-time clock value."""
        if self._total_bytes is None:
            self._total_bytes = sum(self._sizes)
        return self._total_bytes

    @property
    def end_time(self) -> int:
        """The byte-time clock at program exit (equals ``total_bytes``)."""
        return self.total_bytes

    def record(self, obj_id: int) -> ObjectView:
        """The record of object ``obj_id`` (ids are dense from 0)."""
        if not 0 <= obj_id < len(self._sizes):
            raise IndexError(f"no object {obj_id} in trace")
        death = self._deaths[obj_id]
        return ObjectView(
            obj_id=obj_id,
            chain_id=self._chain_ids[obj_id],
            size=self._sizes[obj_id],
            birth=self._births[obj_id],
            death=None if death == _NEVER_FREED else death,
            touches=self._touches[obj_id],
            lifetime=self.lifetime_of(obj_id),
        )

    def records(self) -> Iterator[ObjectView]:
        """All object records in allocation order."""
        for obj_id in range(len(self._sizes)):
            yield self.record(obj_id)

    def chain_of(self, obj_id: int) -> CallChain:
        """The raw (unpruned) call chain of object ``obj_id``."""
        return self.chains.chain(self._chain_ids[obj_id])

    def site_of(self, obj_id: int) -> AllocationSite:
        """The allocation site (chain + size) of object ``obj_id``."""
        return AllocationSite(
            chain=self.chain_of(obj_id), size=self._sizes[obj_id]
        )

    def size_of(self, obj_id: int) -> int:
        """Requested size of object ``obj_id`` in bytes."""
        return self._sizes[obj_id]

    def lifetime_of(self, obj_id: int) -> int:
        """Lifetime of object ``obj_id`` in byte-time.

        Objects never explicitly freed die at program exit, so their
        lifetime runs to the end of the trace (the paper's convention —
        each program's maximum lifetime in Table 3 equals its total
        allocation).
        """
        death = self._deaths[obj_id]
        if death == _NEVER_FREED:
            death = self.end_time
        return death - self._births[obj_id]

    def freed(self, obj_id: int) -> bool:
        """Whether object ``obj_id`` was explicitly freed before exit."""
        return self._deaths[obj_id] != _NEVER_FREED

    def touches_of(self, obj_id: int) -> int:
        """How many heap references were made to object ``obj_id``."""
        return self._touches[obj_id]

    # ------------------------------------------------------------------
    # Event sequence
    # ------------------------------------------------------------------

    def events(self) -> Iterator[Tuple[str, int]]:
        """Alloc/free events in program order as ``("alloc"|"free", obj_id)``.

        Touch events, if recorded, are skipped; use :meth:`full_events`
        for the complete reference timeline.
        """
        for code in self._events:
            tag = code & 3
            if tag == TAG_ALLOC:
                yield ("alloc", code >> 2)
            elif tag == TAG_FREE:
                yield ("free", code >> 2)

    def full_events(self) -> Iterator[Tuple[str, int, int]]:
        """Every event in program order as ``(kind, obj_id, count)``.

        ``kind`` is ``"alloc"``, ``"free"``, or ``"touch"``; ``count`` is
        the number of references for touch events and 1 otherwise.  Touch
        events are present only when the trace was recorded with
        ``record_touches`` enabled (see :class:`~repro.runtime.heap.TracedHeap`).
        """
        touch_index = 0
        for code in self._events:
            tag = code & 3
            obj_id = code >> 2
            if tag == TAG_ALLOC:
                yield ("alloc", obj_id, 1)
            elif tag == TAG_FREE:
                yield ("free", obj_id, 1)
            else:
                yield ("touch", obj_id, self._touch_counts[touch_index])
                touch_index += 1

    @property
    def has_touch_events(self) -> bool:
        """Whether per-reference touch events were recorded."""
        return len(self._touch_counts) > 0

    @property
    def event_count(self) -> int:
        """Total number of recorded events (alloc + free + touch)."""
        return len(self._events)

    def live_stats(self) -> LiveStats:
        """Maximum simultaneously-live bytes and objects (Table 2 columns).

        Computed by replaying the event sequence; cached after first call.
        """
        if self._live_stats is None:
            live_bytes = live_objects = 0
            max_bytes = max_objects = 0
            for code in self._events:
                tag = code & 3
                if tag == TAG_TOUCH:
                    continue
                size = self._sizes[code >> 2]
                if tag == TAG_FREE:
                    live_bytes -= size
                    live_objects -= 1
                else:
                    live_bytes += size
                    live_objects += 1
                    if live_bytes > max_bytes:
                        max_bytes = live_bytes
                    if live_objects > max_objects:
                        max_objects = live_objects
            self._live_stats = LiveStats(max_bytes, max_objects)
        return self._live_stats

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def total_refs(self) -> int:
        """All modelled memory references, heap and non-heap."""
        return self.heap_refs + self.non_heap_refs

    @property
    def heap_ref_fraction(self) -> float:
        """Fraction of modelled memory references that touch the heap."""
        total = self.total_refs
        if total == 0:
            return 0.0
        return self.heap_refs / total

    def raw_arrays(self):
        """Internal arrays, for serialization.  Treat as read-only."""
        return {
            "chain_ids": self._chain_ids,
            "sizes": self._sizes,
            "births": self._births,
            "deaths": self._deaths,
            "touches": self._touches,
            "events": self._events,
            "touch_counts": self._touch_counts,
        }


@dataclass
class TraceBuilder:
    """Incremental construction of a :class:`Trace`.

    The traced heap drives this builder: one :meth:`add_alloc` per object
    birth, one :meth:`add_free` per death, then :meth:`build`.  Ids are
    assigned densely in allocation order.
    """

    program: str
    dataset: str
    chains: ChainTable = field(default_factory=ChainTable)

    record_touches: bool = False

    def __post_init__(self) -> None:
        self._chain_ids = array("i")
        self._sizes = array("q")
        self._births = array("q")
        self._deaths = array("q")
        self._touches = array("q")
        self._events = array("q")
        self._touch_counts = array("q")
        self.total_calls = 0
        self.heap_refs = 0
        self.non_heap_refs = 0

    def add_alloc(self, chain: CallChain, size: int, birth: int) -> int:
        """Record an object birth; returns the new object's id."""
        obj_id = len(self._sizes)
        self._chain_ids.append(self.chains.intern(chain))
        self._sizes.append(size)
        self._births.append(birth)
        self._deaths.append(_NEVER_FREED)
        self._touches.append(0)
        self._events.append((obj_id << 2) | TAG_ALLOC)
        return obj_id

    def add_free(self, obj_id: int, death: int, touches: int) -> None:
        """Record the death of object ``obj_id`` at byte-time ``death``."""
        if self._deaths[obj_id] != _NEVER_FREED:
            raise ValueError(f"object {obj_id} freed twice")
        self._deaths[obj_id] = death
        self._touches[obj_id] = touches
        self._events.append((obj_id << 2) | TAG_FREE)

    def set_touches(self, obj_id: int, touches: int) -> None:
        """Record touch counts for an object that is never freed."""
        self._touches[obj_id] = touches

    def add_touch_event(self, obj_id: int, count: int) -> None:
        """Record one touch event (only when ``record_touches`` is set)."""
        self._events.append((obj_id << 2) | TAG_TOUCH)
        self._touch_counts.append(count)

    def build(self) -> Trace:
        """Finalize and return the immutable :class:`Trace`."""
        return Trace(
            program=self.program,
            dataset=self.dataset,
            chains=self.chains,
            chain_ids=self._chain_ids,
            sizes=self._sizes,
            births=self._births,
            deaths=self._deaths,
            touches=self._touches,
            events=self._events,
            total_calls=self.total_calls,
            heap_refs=self.heap_refs,
            non_heap_refs=self.non_heap_refs,
            touch_counts=self._touch_counts,
        )

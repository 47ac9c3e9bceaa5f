"""Reference-locality measurement: the experiment the paper predicted.

§1 of the paper: "program reference locality is increased because the
short-lived objects (a large fraction of the total objects allocated) are
allocated in a small part of the heap, less than 100 kilobytes in all the
programs we measured."  Table 6's New Ref columns *predict* the effect;
this module measures it:

1. run a workload with touch recording on, so the trace carries the full
   reference timeline (alloc, free, and every heap reference in program
   order);
2. replay the timeline through an allocator, turning each event into the
   byte addresses the program would have touched under that allocator's
   placement;
3. feed the address stream to a simulated cache and compare miss rates
   across allocators.

Address model per event: an allocation writes the object's header and
payload once; a free reads/writes the header; a touch of count *n*
references *n* consecutive words of the object starting at a rotating
offset (successive touches walk the object, the dominant pattern for the
workloads' buffers and arrays).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.alloc.base import Allocator
from repro.alloc.cache import CacheConfig, SetAssociativeCache
from repro.core.predictor import LifetimePredictor
from repro.alloc.spec import (
    BSD_SPEC,
    FIRSTFIT_SPEC,
    PAPER_DEFAULT_SPEC,
    build_allocator,
)
from repro.runtime.events import Trace
from repro.runtime.stream.protocol import (
    EV_ALLOC,
    EV_FREE,
    EventSource,
    as_event_source,
    orphan_free_error,
)

__all__ = [
    "LocalityResult",
    "measure_locality",
    "compare_locality",
    "prefragment",
]

#: Bytes referenced per touch unit (one 32-bit word, the workloads'
#: natural touch granularity).
WORD = 4


@dataclass(frozen=True)
class LocalityResult:
    """Cache behaviour of one allocator's placement for one trace."""

    allocator: str
    program: str
    accesses: int
    misses: int
    #: References landing below the region boundary passed to
    #: :func:`measure_locality` (the arena area, for the arena allocator).
    in_region: int = 0

    @property
    def miss_rate(self) -> float:
        """Cache miss rate over the whole reference stream."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def in_region_fraction(self) -> float:
        """Fraction of references inside the boundary region.

        For the arena allocator this is the *measured* counterpart of the
        paper's New Ref prediction: the share of heap references that the
        64 KB arena area localizes.
        """
        if self.accesses == 0:
            return 0.0
        return self.in_region / self.accesses


def measure_locality(
    trace: Union[Trace, EventSource],
    allocator: Allocator,
    config: Optional[CacheConfig] = None,
    region_boundary: int = 0,
) -> LocalityResult:
    """Replay a trace's reference timeline under ``allocator``'s placement.

    The trace must have been recorded with ``record_touches=True``
    (otherwise only allocation/free references exist and the comparison
    is meaningless); a :class:`ValueError` guards against that mistake.

    Streams the event protocol: alloc events carry their own size and
    chain, so the per-object working set is the live-address/cursor maps.
    """
    source = as_event_source(trace)
    header = source.header
    if not header.has_touch_events:
        raise ValueError(
            "trace has no touch events; re-run the workload with "
            "record_touches=True"
        )
    chain_of = header.chains.chain
    cache = SetAssociativeCache(config)
    addresses: Dict[int, int] = {}
    cursors: Dict[int, int] = {}
    sizes: Dict[int, int] = {}
    in_region = 0
    for ev in source.events():
        tag = ev[0]
        obj_id = ev[1]
        if tag == EV_ALLOC:
            size = ev[3]
            addr = allocator.malloc(size, chain_of(ev[2]))
            addresses[obj_id] = addr
            sizes[obj_id] = size
            cursors[obj_id] = 0
            before = cache.accesses
            # Allocation initializes the object.
            cache.access_range(addr, size)
            if addr < region_boundary:
                in_region += cache.accesses - before
        elif tag == EV_FREE:
            try:
                addr = addresses.pop(obj_id)
            except KeyError:
                raise orphan_free_error(source, obj_id) from None
            cache.access(addr)  # header read on free
            if addr < region_boundary:
                in_region += 1
            allocator.free(addr)
            cursors.pop(obj_id, None)
            sizes.pop(obj_id, None)
        else:  # touch
            addr = addresses.get(obj_id)
            if addr is None:
                continue  # touched after the tracer saw the free (no-op)
            count = ev[2]
            size = sizes[obj_id]
            offset = cursors[obj_id]
            before = cache.accesses
            cache.access_range(addr + offset % max(size, 1),
                               min(count * WORD, size))
            if addr < region_boundary:
                in_region += cache.accesses - before
            cursors[obj_id] = (offset + count * WORD) % max(size, 1)
    return LocalityResult(
        allocator=allocator.name,
        program=header.program,
        accesses=cache.accesses,
        misses=cache.misses,
        in_region=in_region,
    )


def compare_locality(
    trace: Union[Trace, EventSource],
    predictor: LifetimePredictor,
    config: Optional[CacheConfig] = None,
    prefragment_holes: int = 0,
) -> Dict[str, LocalityResult]:
    """Miss rates for first-fit, BSD, and the arena allocator on one trace.

    With ``prefragment_holes > 0`` each allocator's general heap is first
    driven into the fragmented state of a long-running program (see
    :func:`prefragment`): scattered free holes pinned apart by live
    objects.  This reconstructs the conditions under which the paper
    claims its locality win — under first-fit, short-lived objects then
    land all over the fragmented expanse, while the arena allocator keeps
    them inside its 64 KB area.
    """
    source = as_event_source(trace)
    firstfit = build_allocator(FIRSTFIT_SPEC)
    bsd = build_allocator(BSD_SPEC)
    arena = build_allocator(PAPER_DEFAULT_SPEC, predictor)
    if prefragment_holes:
        prefragment(firstfit, holes=prefragment_holes)
        prefragment(bsd, holes=prefragment_holes)
        prefragment(arena, holes=prefragment_holes)
    return {
        "first-fit": measure_locality(source, firstfit, config),
        "bsd": measure_locality(source, bsd, config),
        "arena": measure_locality(
            source, arena, config, region_boundary=arena.arena_area_size
        ),
    }


#: Chain used for pre-fragmentation pins; no trained predictor selects it,
#: so pins always land in the general heap.
_PIN_CHAIN = ("main", "startup", "pin")


def prefragment(
    allocator: Allocator,
    holes: int = 512,
    hole_size: int = 1024,
    pin_size: int = 48,
) -> None:
    """Drive an allocator's heap into a fragmented steady state.

    Allocates an alternating sequence of small *pins* and ``hole_size``
    blocks, then frees every hole: the heap becomes ``holes`` scattered
    free regions separated by live pins — the address-space shape a
    long-running program's general heap reaches (§5.2's "small short-lived
    objects ... polluting the address space occupied by long-lived
    objects", frozen as initial conditions).
    """
    pins = []
    gaps = []
    for _ in range(holes):
        pins.append(allocator.malloc(pin_size, _PIN_CHAIN))
        gaps.append(allocator.malloc(hole_size, _PIN_CHAIN))
    for gap in gaps:
        allocator.free(gap)

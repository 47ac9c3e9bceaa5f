"""Order-independent lifetime folds for the sharded replay engine.

A :class:`LifetimeFold` consumes the same ``(chain_id, size, lifetime,
touches)`` tuples :func:`~repro.runtime.stream.protocol.
iter_object_lifetimes` yields, under two contracts that make it safe to
run in parallel shards:

* ``add`` must be order-independent — folding the same multiset of
  objects in any order gives the same state; and
* ``merge`` must be commutative and associative — merging per-shard
  folds equals folding everything in one place.

Instances cross the process boundary twice (empty to the worker, full
back to the parent), so they must be picklable; everything they carry —
chain tables, predictor databases, plain dicts and sets — is.

The engine delivers each object through :meth:`LifetimeFold.add_object`
with its full ``(obj_id, chain_id, size, birth, death, touches)`` record;
the default implementation collapses that to the classic ``add`` tuple,
so lifetime-only folds are unchanged while position-aware folds (the
windowed time series of :mod:`repro.obs.windows`) override ``add_object``
and key on the byte-time positions directly — all three values are
intrinsic to the object, so order-independence is preserved.

The concrete folds are the pipeline's lifetime accumulations, serial
and sharded alike (a serial pass is one shard):
:class:`EvaluateFold` is :func:`repro.core.predictor.evaluate`
(integer sums per pair, then key-set unions); :class:`SiteSelectFold`
keeps only the maximum lifetime, which is all the paper's
all-short-lived selection rule reads; :class:`SizeOnlyFold` AND-folds
per-size shortness; :class:`ShortBytesFold` is the oracle byte sum.
The first two accumulate per raw ``(chain_id, size)`` pair and map
pairs to site keys once, when the result is read — a trace holds a few
hundred pairs against hundreds of thousands of objects, and keying
(cycle pruning, sub-chains, rounding) is the expensive step.  The
order-*dependent* accumulations (P^2 quantiles, live-byte high-water
marks, allocator state) are deliberately absent — those replay through
the ordered :class:`~repro.runtime.shard.source.ShardedTraceSource`
instead.
"""

from __future__ import annotations

from functools import partial
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.predictor import (
    LifetimePredictor,
    PredictionEvaluation,
    SitePredictor,
    StaticEscapePredictor,
)
from repro.core.sites import FULL_CHAIN, CallChain, ChainTable, site_key
from repro.runtime.stream.protocol import StreamHeader, StreamSummary

__all__ = [
    "LifetimeFold",
    "EvaluateFold",
    "SiteSelectFold",
    "SizeOnlyFold",
    "ShortBytesFold",
]

#: A raw ``(chain_id, size)`` allocation identity, as the trace stores it.
Pair = Tuple[int, int]


class LifetimeFold:
    """Contract for per-object folds the shard engine parallelizes."""

    def add(
        self, chain_id: int, size: int, lifetime: int, touches: int
    ) -> None:
        """Fold one object (order-independent by contract)."""
        raise NotImplementedError

    def add_object(
        self,
        obj_id: int,
        chain_id: int,
        size: int,
        birth: int,
        death: int,
        touches: int,
    ) -> None:
        """Fold one object with its absolute position in the run.

        The engine always calls this richer form; the default collapses
        it to :meth:`add`, so folds that only need the lifetime stay
        one-method.  Position-aware folds (windowed time series) override
        it instead — ``obj_id`` is the dense allocation index, ``birth``
        and ``death`` are byte-times, and all three are intrinsic to the
        object, so overriding keeps ``add_object`` order-independent.
        """
        self.add(chain_id, size, death - birth, touches)

    def merge(self, other: "LifetimeFold") -> None:
        """Fold another shard's state into this one (commutative)."""
        raise NotImplementedError


class EvaluateFold(LifetimeFold):
    """The accumulators of :func:`repro.core.predictor.evaluate`.

    Objects, short-lived objects and touches per raw ``(chain_id,
    size)`` pair — every pair's objects share one verdict and one key,
    so :meth:`result` asks the predictor once per pair and rebuilds the
    byte sums and key sets from these counts.
    """

    def __init__(self, predictor: LifetimePredictor, chains: ChainTable):
        self.predictor = predictor
        self.chains = chains
        self.threshold = predictor.threshold
        #: (chain_id, size) -> [objects, short objects, touches]
        self.pairs: Dict[Pair, List[int]] = {}

    def add(
        self, chain_id: int, size: int, lifetime: int, touches: int
    ) -> None:
        short = 1 if lifetime < self.threshold else 0
        counts = self.pairs.get((chain_id, size))
        if counts is None:
            self.pairs[(chain_id, size)] = [1, short, touches]
        else:
            counts[0] += 1
            counts[1] += short
            counts[2] += touches

    def merge(self, other: "EvaluateFold") -> None:
        mine = self.pairs
        for pair, (objects, short, touches) in other.pairs.items():
            counts = mine.get(pair)
            if counts is None:
                mine[pair] = [objects, short, touches]
            else:
                counts[0] += objects
                counts[1] += short
                counts[2] += touches

    def result(
        self,
        header: StreamHeader,
        summary: StreamSummary,
        count_matched_sites: bool = True,
    ) -> PredictionEvaluation:
        """The finished evaluation, resolving each pair once.

        Test and matched keys live in the predictor's own key space: its
        site key (site and static predictors; a static hit matches every
        database entry that covers it) or the size (every other family).
        """
        predictor = self.predictor
        site_based = isinstance(predictor, SitePredictor)
        static = isinstance(predictor, StaticEscapePredictor)
        chain_of = self.chains.chain
        total_bytes = actual_short = predicted_short = error_bytes = 0
        predicted_objects = predicted_refs = 0
        matched_keys: Set = set()
        test_keys: Set = set()
        for (chain_id, size), (objects, short, touches) in self.pairs.items():
            chain = chain_of(chain_id)
            total_bytes += objects * size
            actual_short += short * size
            if site_based or static:
                key = predictor.key_for(chain, size)  # type: ignore[attr-defined]
            else:
                key = size
            test_keys.add(key)
            if not predictor.predicts_short_lived(chain, size):
                continue
            if static:
                matched_keys.update(
                    predictor.matching_keys(chain, size)  # type: ignore[attr-defined]
                )
            else:
                matched_keys.add(key)
            predicted_objects += objects
            predicted_refs += touches
            predicted_short += short * size
            error_bytes += (objects - short) * size
        sites_used = (
            len(matched_keys) if count_matched_sites
            else predictor.site_count
        )
        return PredictionEvaluation(
            program=header.program,
            dataset=header.dataset,
            threshold=predictor.threshold,
            total_sites=len(test_keys),
            sites_used=sites_used,
            total_bytes=total_bytes,
            actual_short_bytes=actual_short,
            predicted_short_bytes=predicted_short,
            error_bytes=error_bytes,
            predicted_objects=predicted_objects,
            total_heap_refs=summary.heap_refs,
            predicted_heap_refs=predicted_refs,
        )


class SiteSelectFold(LifetimeFold):
    """Per-site maximum lifetime at one abstraction level.

    The all-short-lived rule reads nothing else ("all objects lived
    less than 32 kilobytes" is ``max_lifetime < threshold``).  The fold
    keeps the maximum per raw ``(chain_id, size)`` pair and maps pairs
    to site keys only in :meth:`max_lifetimes`; max is commutative and
    associative, so the per-site maxima — and the selected frozenset —
    equal a per-object fold's in any order and any sharding, which is
    why the saved databases stay byte-identical (the writer sorts its
    site list).
    """

    def __init__(
        self,
        chains: ChainTable,
        chain_length: Optional[int] = FULL_CHAIN,
        size_rounding: int = 1,
    ):
        self.chains = chains
        self.chain_length = chain_length
        self.size_rounding = size_rounding
        #: (chain_id, size) -> maximum lifetime
        self.pair_max: Dict[Pair, int] = {}

    def add(
        self, chain_id: int, size: int, lifetime: int, touches: int
    ) -> None:
        current = self.pair_max.get((chain_id, size))
        if current is None or lifetime > current:
            self.pair_max[(chain_id, size)] = lifetime

    def merge(self, other: "SiteSelectFold") -> None:
        mine = self.pair_max
        for pair, lifetime in other.pair_max.items():
            current = mine.get(pair)
            if current is None or lifetime > current:
                mine[pair] = lifetime

    def max_lifetimes(
        self, key_of: Optional[Callable[[CallChain, int], Hashable]] = None
    ) -> Dict[Hashable, int]:
        """Maximum lifetime per key, resolving each raw pair once.

        ``key_of(chain, size)`` defaults to the site key at this fold's
        level; other key spaces (CCE keys) pass their own.
        """
        if key_of is None:
            key_of = partial(site_key, length=self.chain_length,
                             size_rounding=self.size_rounding)
        chain_of = self.chains.chain
        maxima: Dict[Hashable, int] = {}
        for (chain_id, size), lifetime in self.pair_max.items():
            key = key_of(chain_of(chain_id), size)
            current = maxima.get(key)
            if current is None or lifetime > current:
                maxima[key] = lifetime
        return maxima

    def short_lived_sites(self, threshold: int) -> FrozenSet:
        """Site keys whose every object died under ``threshold``."""
        return frozenset(
            key for key, lifetime in self.max_lifetimes().items()
            if lifetime < threshold
        )


class SizeOnlyFold(LifetimeFold):
    """Per-size all-short-lived AND fold (the Table 5 ablation)."""

    def __init__(self, threshold: int):
        self.threshold = threshold
        self.per_size: Dict[int, bool] = {}

    def add(
        self, chain_id: int, size: int, lifetime: int, touches: int
    ) -> None:
        short = lifetime < self.threshold
        self.per_size[size] = self.per_size.get(size, True) and short

    def merge(self, other: "SizeOnlyFold") -> None:
        mine = self.per_size
        for size, short in other.per_size.items():
            mine[size] = mine.get(size, True) and short

    def short_lived_sizes(self) -> FrozenSet[int]:
        """Sizes whose every object died under the threshold."""
        return frozenset(
            size for size, short in self.per_size.items() if short
        )


class ShortBytesFold(LifetimeFold):
    """Oracle sum: bytes of objects that truly died under threshold."""

    def __init__(self, threshold: int):
        self.threshold = threshold
        self.total = 0

    def add(
        self, chain_id: int, size: int, lifetime: int, touches: int
    ) -> None:
        if lifetime < self.threshold:
            self.total += size

    def merge(self, other: "ShortBytesFold") -> None:
        self.total += other.total

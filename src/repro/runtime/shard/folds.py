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

Every lifetime-only result of the pipeline — site, size-only, CCE and
multiclass training, evaluation, the short-bytes oracle and per-site
attribution — is a reduction of one :class:`PairCensusFold`: integer
sums and maxima per raw ``(chain_id, size)`` pair at one threshold.  A
trace holds a few hundred pairs against hundreds of thousands of
objects, so each consumer reads the census, not the objects, and
:func:`~repro.runtime.shard.engine.lifetime_census` folds it once per
(trace, threshold).  The order-*dependent* accumulations (P^2
quantiles, live-byte high-water marks, allocator state) are
deliberately absent — those replay through the ordered
:class:`~repro.runtime.shard.source.ShardedTraceSource` instead.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Tuple

from repro.core.sites import CallChain, ChainTable

__all__ = [
    "LifetimeFold",
    "PairCensusFold",
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


class PairCensusFold(LifetimeFold):
    """Per raw ``(chain_id, size)`` pair, every lifetime sum at one threshold.

    :attr:`pairs` maps each pair to ``[objects, short objects, touches,
    max lifetime, sum of lifetimes, sum of long-lived lifetimes]``, where
    short means ``lifetime < threshold``.  Every pair's objects share
    one site key and one predictor verdict, so each consumer's result —
    the all-short-lived selection (max lifetime), evaluation byte sums
    (count x size), attribution byte-times (size x lifetime sum) — is a
    reduction over these few hundred rows.  ``merge`` is elementwise sum
    and max, commutative and associative, so the census shards like any
    other fold and its sums equal a serial pass's exactly.

    A census handed out by the memo is shared: readers must not mutate
    it.
    """

    def __init__(self, threshold: int):
        self.threshold = threshold
        self.pairs: Dict[Pair, List[int]] = {}

    def add(
        self, chain_id: int, size: int, lifetime: int, touches: int
    ) -> None:
        counts = self.pairs.get((chain_id, size))
        short = lifetime < self.threshold
        if counts is None:
            self.pairs[(chain_id, size)] = [
                1, 1 if short else 0, touches, lifetime, lifetime,
                0 if short else lifetime,
            ]
            return
        counts[0] += 1
        counts[2] += touches
        if lifetime > counts[3]:
            counts[3] = lifetime
        counts[4] += lifetime
        if short:
            counts[1] += 1
        else:
            counts[5] += lifetime

    def merge(self, other: "PairCensusFold") -> None:
        mine = self.pairs
        for pair, theirs in other.pairs.items():
            counts = mine.get(pair)
            if counts is None:
                mine[pair] = list(theirs)
            else:
                counts[0] += theirs[0]
                counts[1] += theirs[1]
                counts[2] += theirs[2]
                if theirs[3] > counts[3]:
                    counts[3] = theirs[3]
                counts[4] += theirs[4]
                counts[5] += theirs[5]

    def max_lifetimes(
        self,
        chains: ChainTable,
        key_of: Callable[[CallChain, int], Hashable],
    ) -> Dict[Hashable, int]:
        """Maximum lifetime per ``key_of(chain, size)``, keying each pair
        once — all the paper's all-short-lived rule reads ("all objects
        lived less than 32 kilobytes" is ``max lifetime < threshold``)."""
        chain_of = chains.chain
        maxima: Dict[Hashable, int] = {}
        for (chain_id, size), counts in self.pairs.items():
            key = key_of(chain_of(chain_id), size)
            current = maxima.get(key)
            if current is None or counts[3] > current:
                maxima[key] = counts[3]
        return maxima

    def short_bytes(self) -> int:
        """Bytes of objects that died under the threshold (the oracle)."""
        return sum(counts[1] * size
                   for (_, size), counts in self.pairs.items())

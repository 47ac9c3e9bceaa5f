"""Sharded parallel replay over the v3 footer chunk index.

Two complementary engines, both gated by byte-identity against the
serial streamed path (see DESIGN.md §11):

* :class:`ShardedTraceSource` — *ordered* chunk-parallel decode.  The
  expensive per-chunk work (gzip + JSON + validation) runs in a process
  pool while the parent yields chunks strictly in index order, so every
  consumer — including history-dependent ones like the Table 7-9
  allocator replays and the P^2 quantile trainers — sees the exact
  serial event sequence and produces byte-identical output by
  construction.

* :func:`fold_object_lifetimes` — true map/reduce for the
  order-independent per-object folds: the pair census behind predictor
  training, evaluation, the short-bytes oracle and attribution
  (memoized per trace and threshold by :func:`lifetime_census`), and
  the windowed time series.  Shards replay concurrently and a
  deterministic reducer resolves cross-shard lifetimes (allocated in
  shard i, freed in shard j) through a live-object handoff frontier
  walked in trace order.

:func:`plan_shards` partitions the chunk index into balanced contiguous
shards; the :mod:`~repro.runtime.shard.folds` module defines the fold
contract and the concrete folds.
"""

from repro.runtime.shard.engine import fold_object_lifetimes, lifetime_census
from repro.runtime.shard.folds import LifetimeFold, PairCensusFold
from repro.runtime.shard.plan import Shard, plan_shards
from repro.runtime.shard.source import ShardedTraceSource

__all__ = [
    "LifetimeFold",
    "PairCensusFold",
    "Shard",
    "ShardedTraceSource",
    "fold_object_lifetimes",
    "lifetime_census",
    "plan_shards",
]

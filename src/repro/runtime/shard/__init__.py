"""Sharded lifetime folds over the v3 footer chunk index.

:func:`fold_object_lifetimes` is a true map/reduce for the
order-independent per-object folds: the pair census behind predictor
training, evaluation, the short-bytes oracle and attribution (memoized
per trace and threshold by :func:`lifetime_census`), and the windowed
time series.  Shards replay concurrently, each worker reading its own
chunks straight from the file, and a deterministic reducer resolves
cross-shard lifetimes (allocated in shard i, freed in shard j) through a
live-object handoff frontier walked in trace order.  The result is
byte-identical to the serial fold (see DESIGN.md §11).

Order-dependent consumers (allocator replays, P^2 quantiles, telemetry)
never shard: they read the event stream in order.

:func:`plan_shards` partitions the chunk index into balanced contiguous
shards; the :mod:`~repro.runtime.shard.folds` module defines the fold
contract and the concrete folds.
"""

from repro.runtime.shard.engine import fold_object_lifetimes, lifetime_census
from repro.runtime.shard.folds import LifetimeFold, PairCensusFold
from repro.runtime.shard.plan import Shard, plan_shards

__all__ = [
    "LifetimeFold",
    "PairCensusFold",
    "Shard",
    "fold_object_lifetimes",
    "lifetime_census",
    "plan_shards",
]

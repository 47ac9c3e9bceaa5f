"""Experiment orchestration: cached traces and trained predictors.

Running a workload is the expensive step of every experiment, and most
tables need the same executions, so a :class:`TraceStore` runs each
(program, dataset) once per scale and caches the execution and any
predictors trained from it.  The benchmarks, CLI, and examples all share
one store per process.

Two layers back the store:

* one :class:`~repro.runtime.stream.protocol.EventSource` per execution,
  kept for the store's lifetime, and
* the persistent :class:`~repro.analysis.trace_cache.TraceCache`, enabled
  by default, so *other* processes — pytest workers, benchmark sessions,
  repeated CLI invocations — open a cached trace in milliseconds instead
  of re-running the workload.  Disable with ``use_cache=False`` or the
  ``REPRO_NO_CACHE`` environment variable.

A cached execution is an
:class:`~repro.analysis.trace_cache.ExecutionSource`: its first pass
streams the v3 file, and a second pass decodes it once into memory for
every later replay.  See :meth:`TraceStore.source`.

:meth:`TraceStore.warm` fans the 5 programs × 2 datasets out across
worker processes (``jobs > 1``); workers publish traces through the disk
cache, which is also how ``repro-alloc table --jobs N`` shares one set of
executions between table worker processes.

Following the paper's methodology note — "the performance results
presented apply to the largest of the input sets in all cases" — every
table evaluates on the ``test`` dataset; *self* prediction trains on that
same execution, *true* prediction trains on ``train``.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.metrics import METRICS, Metrics
from repro.obs.spans import TRACER
from repro.analysis.trace_cache import (
    ExecutionSource,
    TraceCache,
    cache_disabled_by_env,
)
from repro.core.cce import CCEPredictor, train_cce_predictor
from repro.core.predictor import (
    DEFAULT_THRESHOLD,
    TRUE_PREDICTION_ROUNDING,
    SitePredictor,
    train_site_predictor,
)
from repro.core.sites import FULL_CHAIN
from repro.runtime.events import Trace
from repro.runtime.stream.protocol import EventSource, TraceEventSource
from repro.workloads.registry import PROGRAM_ORDER, run_workload

__all__ = [
    "TraceStore",
    "WarmResult",
    "EVAL_DATASET",
    "TRAIN_DATASET",
]

#: The dataset every table evaluates on (the paper's "largest input").
EVAL_DATASET = "test"
#: The dataset true prediction trains on.
TRAIN_DATASET = "train"


@dataclass(frozen=True)
class WarmResult:
    """Outcome of warming one (program, dataset) execution.

    ``source`` is ``"memory"`` (already in this store), ``"disk"`` (found
    in the persistent cache), or ``"run"`` (the workload executed).
    """

    program: str
    dataset: str
    source: str
    seconds: float


def _warm_worker(
    program: str, dataset: str, scale: float, cache_dir: str
) -> Tuple[WarmResult, dict]:
    """Child-process body of a parallel warm: trace via the disk cache.

    Returns the warm outcome *and* a :meth:`Metrics.to_dict` snapshot of
    everything the worker measured (cache loads/stores, workload runs) so
    the parent can :meth:`Metrics.merge` it — process-pool workers get
    their own ``METRICS`` registry, and without the snapshot their
    timings would silently vanish from the session report.
    """
    metrics = Metrics()
    cache = TraceCache(cache_dir, metrics=metrics)
    start = time.perf_counter()
    if cache.open_stream(program, dataset, scale, verify=True) is not None:
        result = WarmResult(
            program, dataset, "disk", time.perf_counter() - start
        )
        return result, metrics.to_dict()
    with metrics.stage("workload.run"):
        trace = run_workload(program, dataset, scale=scale)
    cache.store(trace, scale)
    result = WarmResult(program, dataset, "run", time.perf_counter() - start)
    return result, metrics.to_dict()


class TraceStore:
    """Caches workload executions and trained predictors for one scale.

    ``cache`` injects a ready :class:`TraceCache`; otherwise one is built
    over ``cache_dir`` (default ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro-alloc``) unless ``use_cache=False`` or
    ``REPRO_NO_CACHE`` is set.  Timings and hit/miss counts go to
    ``metrics`` (the process-wide default when omitted).

    Every execution resolves to one
    :class:`~repro.runtime.stream.protocol.EventSource` (see
    :meth:`source`); :meth:`trace` is that source's in-memory copy.
    ``jobs > 1`` lets lifetime folds over a cached execution shard
    across that many worker processes — byte-identical results, less
    wall clock.
    """

    def __init__(
        self,
        scale: float = 1.0,
        *,
        cache: Optional[TraceCache] = None,
        cache_dir: Union[str, None] = None,
        use_cache: bool = True,
        metrics: Optional[Metrics] = None,
        jobs: int = 1,
        predictor_mode: str = "trained",
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if predictor_mode not in ("trained", "static"):
            raise ValueError(
                f"predictor_mode must be 'trained' or 'static', "
                f"got {predictor_mode!r}"
            )
        self.scale = scale
        self.jobs = jobs
        self.predictor_mode = predictor_mode
        self._metrics = metrics if metrics is not None else METRICS
        if cache is not None:
            self._cache: Optional[TraceCache] = cache
        elif use_cache and not cache_disabled_by_env():
            self._cache = TraceCache(cache_dir, metrics=self._metrics)
        else:
            self._cache = None
        #: One source per execution, handed out on every :meth:`source`.
        self._sources: Dict[Tuple[str, str], EventSource] = {}
        self._site_predictors: Dict[tuple, SitePredictor] = {}
        self._cce_predictors: Dict[tuple, CCEPredictor] = {}
        self._static_predictors: Dict[tuple, "StaticEscapePredictor"] = {}
        self._multiclass_predictors: Dict[tuple, object] = {}

    @property
    def programs(self) -> list:
        """The five programs in the paper's table order."""
        return list(PROGRAM_ORDER)

    @property
    def cache(self) -> Optional[TraceCache]:
        """The persistent trace cache, or ``None`` when disabled."""
        return self._cache

    def trace(self, program: str, dataset: str = EVAL_DATASET) -> Trace:
        """The in-memory trace of one workload execution.

        This is :meth:`source`'s own copy — decoded from the cached file
        at most once, or the workload run's trace — so a consumer that
        needs random access shares it, and its census memo, with every
        replay of the same execution.
        """
        return self.source(program, dataset).trace

    def source(self, program: str, dataset: str = EVAL_DATASET) -> EventSource:
        """The event source of one workload execution.

        Resolution order: a source this store already holds, the disk
        cache's v3 entry, then a fresh workload run (which also
        populates the disk cache).  A cached entry opens as an
        :class:`~repro.analysis.trace_cache.ExecutionSource` — streamed
        on its first pass, decoded
        into memory when a second begins — and a fresh run is replayed
        from the run's own trace.  Either way the source is kept and
        handed out again on every later call, so the workload runs at
        most once per store and all consumers share one lifetime census
        per threshold (see
        :func:`~repro.runtime.shard.engine.lifetime_census`).
        """
        key = (program, dataset)
        source = self._sources.get(key)
        if source is None:
            source = self._sources[key] = self._open(program, dataset)
        return source

    def _open(
        self, program: str, dataset: str, verify: bool = False
    ) -> EventSource:
        if self._cache is not None:
            source = self._cache.open_stream(
                program, dataset, self.scale, shard_jobs=self.jobs,
                verify=verify,
            )
            if source is not None:
                return source
        with TRACER.span("workload.run", cat="workload", program=program,
                         dataset=dataset, scale=self.scale), \
                self._metrics.stage("workload.run"):
            trace = run_workload(program, dataset, scale=self.scale)
        if self._cache is not None:
            self._cache.store(trace, self.scale)
        return TraceEventSource(trace)

    def predictor(
        self,
        program: str,
        train_dataset: str = TRAIN_DATASET,
        threshold: int = DEFAULT_THRESHOLD,
        chain_length: Optional[int] = FULL_CHAIN,
        size_rounding: int = TRUE_PREDICTION_ROUNDING,
    ) -> SitePredictor:
        """A (cached) site predictor trained on one execution.

        With ``predictor_mode="static"`` the profiling run is skipped
        entirely and the escape analysis's predictor is returned instead
        (``train_dataset``, ``chain_length`` and ``size_rounding`` do not
        apply — the static DB fixes its own key space).
        """
        if self.predictor_mode == "static":
            return self.static_predictor(program, threshold=threshold)
        key = (program, train_dataset, threshold, chain_length, size_rounding)
        if key not in self._site_predictors:
            source = self.source(program, train_dataset)
            with TRACER.span("predictor.train", cat="core",
                             program=program, dataset=train_dataset):
                self._site_predictors[key] = train_site_predictor(
                    source,
                    threshold=threshold,
                    chain_length=chain_length,
                    size_rounding=size_rounding,
                )
        return self._site_predictors[key]

    def cce_predictor(
        self,
        program: str,
        train_dataset: str = TRAIN_DATASET,
        threshold: int = DEFAULT_THRESHOLD,
        size_rounding: int = TRUE_PREDICTION_ROUNDING,
    ) -> CCEPredictor:
        """A (cached) call-chain-encryption predictor."""
        key = (program, train_dataset, threshold, size_rounding)
        if key not in self._cce_predictors:
            self._cce_predictors[key] = train_cce_predictor(
                self.source(program, train_dataset), threshold=threshold,
                size_rounding=size_rounding,
            )
        return self._cce_predictors[key]

    def static_predictor(
        self, program: str, threshold: int = DEFAULT_THRESHOLD
    ) -> "StaticEscapePredictor":
        """The (cached) profile-free escape-analysis predictor.

        Requires no trace at all — the workload sources are analyzed
        directly, so this is available before any execution is cached.
        """
        key = (program, threshold)
        if key not in self._static_predictors:
            from repro.static.escape import build_escape_db

            with TRACER.span("predictor.static", cat="core",
                             program=program):
                self._static_predictors[key] = build_escape_db(
                    program, threshold=threshold
                ).to_predictor()
        return self._static_predictors[key]

    def self_predictor(self, program: str, **kwargs) -> SitePredictor:
        """A predictor trained on the evaluation execution itself."""
        return self.predictor(program, train_dataset=EVAL_DATASET, **kwargs)

    def predictor_for(self, program: str, spec):
        """Resolve the predictor an :class:`~repro.alloc.AllocatorSpec`
        asks for, ready to pass to
        :func:`~repro.alloc.spec.build_allocator`.

        The spec's ``predictor`` field names the resolution mode
        (``trained``/``self``/``static``/``cce``/``none``) and its
        prediction parameters (``threshold``, ``chain_length``,
        ``size_rounding``, ``class_thresholds``) pick the exact predictor
        — every path lands in this store's caches, so a search over many
        specs trains each distinct predictor once.
        """
        mode = spec.predictor
        if mode == "none" or spec.kind in ("firstfit", "bsd"):
            return None
        train_dataset = EVAL_DATASET if mode == "self" else TRAIN_DATASET
        if spec.kind == "multiarena":
            from repro.core.multiclass import train_multiclass_predictor

            key = (program, train_dataset, spec.class_thresholds,
                   spec.chain_length, spec.size_rounding)
            if key not in self._multiclass_predictors:
                self._multiclass_predictors[key] = (
                    train_multiclass_predictor(
                        self.source(program, train_dataset),
                        thresholds=spec.class_thresholds,
                        chain_length=spec.chain_length,
                        size_rounding=spec.size_rounding,
                    )
                )
            return self._multiclass_predictors[key]
        if mode == "static":
            return self.static_predictor(program, threshold=spec.threshold)
        if mode == "cce":
            return self.cce_predictor(
                program, threshold=spec.threshold,
                size_rounding=spec.size_rounding,
            )
        return self.predictor(
            program,
            train_dataset=train_dataset,
            threshold=spec.threshold,
            chain_length=spec.chain_length,
            size_rounding=spec.size_rounding,
        )

    # ------------------------------------------------------------------
    # Warming
    # ------------------------------------------------------------------

    def warm_pairs(self) -> List[Tuple[str, str]]:
        """Every (program, dataset) execution the tables need."""
        return [
            (program, dataset)
            for program in PROGRAM_ORDER
            for dataset in (TRAIN_DATASET, EVAL_DATASET)
        ]

    def warm(self, jobs: Optional[int] = None) -> List[WarmResult]:
        """Run every program's train and test executions now.

        With ``jobs > 1`` and the disk cache enabled, executions fan out
        across a :class:`~concurrent.futures.ProcessPoolExecutor`; workers
        publish traces through the cache (memory in this process stays
        lazy — the next :meth:`source` call is a disk hit).  Without a
        cache there is nowhere for workers to hand traces back, so the
        warm runs serially in-process — with an explicit stderr notice,
        so ``jobs > 1`` is never a silent no-op.  Either way a cached
        entry counts as a disk hit only after every one of its frames
        has been read back intact; a damaged entry is deleted and its
        workload re-runs.  Returns one :class:`WarmResult` per execution.
        """
        pairs = self.warm_pairs()
        results: List[WarmResult] = []
        with TRACER.span("warm", cat="pipeline", scale=self.scale), \
                self._metrics.stage("warm"):
            if jobs and jobs > 1 and self._cache is not None:
                self._cache.directory.mkdir(parents=True, exist_ok=True)
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    futures = [
                        pool.submit(
                            _warm_worker,
                            program,
                            dataset,
                            self.scale,
                            str(self._cache.directory),
                        )
                        for program, dataset in pairs
                    ]
                    for future in as_completed(futures):
                        result, worker_metrics = future.result()
                        self._metrics.merge(worker_metrics)
                        self._metrics.incr(f"warm.{result.source}")
                        results.append(result)
                order = {pair: i for i, pair in enumerate(pairs)}
                results.sort(key=lambda r: order[(r.program, r.dataset)])
            else:
                if jobs and jobs > 1:
                    print(
                        "warm: parallel warming needs the persistent trace "
                        "cache to share traces across workers; cache "
                        "disabled, warming serially in-process",
                        file=sys.stderr,
                    )
                for key in pairs:
                    program, dataset = key
                    start = time.perf_counter()
                    if key in self._sources:
                        source = "memory"
                    else:
                        opened = self._sources[key] = self._open(
                            program, dataset, verify=True
                        )
                        source = (
                            "disk" if isinstance(opened, ExecutionSource)
                            else "run"
                        )
                    self._metrics.incr(f"warm.{source}")
                    results.append(
                        WarmResult(
                            program,
                            dataset,
                            source,
                            time.perf_counter() - start,
                        )
                    )
        return results

"""Lifetime predictors and their evaluation.

This is the paper's central contribution (§2, §4): given a training
execution, select the allocation sites whose objects were *all* short-lived
and predict, at allocation time, that new objects from those sites will be
short-lived too.

Three predictor families are provided, matching the paper's experiments:

:class:`SitePredictor`
    Keys on (call chain, size) at a configurable chain length and size
    rounding — the paper's main predictor (Tables 4 and 6).

:class:`SizeOnlyPredictor`
    Keys on object size alone — the ablation of Table 5, which shows size
    by itself predicts poorly.

:class:`~repro.core.cce.CCEPredictor` (in :mod:`repro.core.cce`)
    Keys on the XOR-encrypted call chain — the constant-overhead encoding
    of §5.1.

*Self prediction* trains and evaluates on the same trace; *true prediction*
trains on one input's trace and evaluates on another's (§4).  For true
prediction the paper rounds sizes to a multiple of four so sites map
between runs; :func:`train_site_predictor` defaults match that.

:func:`evaluate` scores any predictor against a trace, producing the
columns of Tables 4-6: percentage of total bytes correctly predicted
short-lived, percentage erroneously predicted (actually long-lived), sites
used, and the fraction of heap references going to predicted objects (the
New Ref column).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, FrozenSet, Optional, Set, Tuple, Union

from repro.core.profile import SiteKey, SiteProfile
from repro.core.sites import (
    FULL_CHAIN,
    CallChain,
    prune_recursive_cycles,
    site_key,
)
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.runtime.events import Trace
    from repro.runtime.stream.protocol import EventSource

#: Consumers here take either an in-memory trace or an event stream; all
#: per-object statistics they accumulate are order-independent, so both
#: inputs produce identical predictors and evaluations.
TraceLike = Union["Trace", "EventSource"]

__all__ = [
    "DEFAULT_THRESHOLD",
    "TRUE_PREDICTION_ROUNDING",
    "LifetimePredictor",
    "SitePredictor",
    "SizeOnlyPredictor",
    "StaticEscapePredictor",
    "train_site_predictor",
    "train_size_only_predictor",
    "actual_short_lived_bytes",
    "PredictionEvaluation",
    "evaluate",
]

#: The paper's definition of "short-lived": dead before 32 kilobytes of new
#: data are allocated (§4.1).
DEFAULT_THRESHOLD = 32 * 1024

#: Size rounding used to map allocation sites between training and test
#: runs (§4: "by rounding the object size to a multiple of four bytes ...
#: corresponding sites were more likely to map correctly").
TRUE_PREDICTION_ROUNDING = 4


class LifetimePredictor:
    """Interface shared by every predictor.

    A predictor answers one question at allocation time: will the object
    being born at ``(chain, size)`` be short-lived?  Implementations also
    expose ``site_count`` (how many database entries back the prediction —
    the Sites Used columns) and ``threshold`` (the short-lived cutoff they
    were trained for).

    Families implement :meth:`_predict`; :meth:`predicts_short_lived`
    memoizes its verdict per ``(chain, size)`` on the instance, so a
    replay resolves each site once — the paper runtime's single hash
    lookup per allocation (§5.1) — instead of re-keying every object.
    The memo is a cache, not state: pickling drops it (see
    :meth:`__getstate__`), and the database writer never reads it.
    """

    threshold: int
    #: Verdict memo, created on first use; keyed by chain *value*.
    _verdicts: Optional[Dict[Tuple[CallChain, int], bool]] = None

    def predicts_short_lived(self, chain: CallChain, size: int) -> bool:
        """Whether an object born at ``(chain, size)`` is predicted short-lived."""
        verdicts = self._verdicts
        if verdicts is None:
            verdicts = self._verdicts = {}
        key = (chain, size)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = self._predict(chain, size)
        return verdict

    def _predict(self, chain: CallChain, size: int) -> bool:
        """The uncached verdict for ``(chain, size)``."""
        raise NotImplementedError

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_verdicts", None)
        return state

    @property
    def site_count(self) -> int:
        """Number of predictor database entries (Sites Used)."""
        raise NotImplementedError


class SitePredictor(LifetimePredictor):
    """Predicts short-lived objects from a database of allocation sites.

    The database is the set of site keys — (sub-chain, rounded size) — whose
    training objects all died under the threshold.  At allocation time the
    incoming chain and size are abstracted to the same level and looked up;
    this mirrors the hash-table lookup of the paper's runtime (§5.1).
    """

    def __init__(
        self,
        sites: FrozenSet[SiteKey],
        threshold: int,
        chain_length: Optional[int],
        size_rounding: int,
        program: str = "?",
    ):
        self.sites = sites
        self.threshold = threshold
        self.chain_length = chain_length
        self.size_rounding = size_rounding
        self.program = program

    @property
    def site_count(self) -> int:
        return len(self.sites)

    @property
    def level(self) -> Tuple[Optional[int], int]:
        """The (chain length, size rounding) the database was built at."""
        return (self.chain_length, self.size_rounding)

    def key_for(self, chain: CallChain, size: int) -> SiteKey:
        """Abstract an allocation's (chain, size) to this predictor's level."""
        return site_key(
            chain, size, length=self.chain_length, size_rounding=self.size_rounding
        )

    def _predict(self, chain: CallChain, size: int) -> bool:
        return self.key_for(chain, size) in self.sites

    def restricted_to(self, profile: SiteProfile) -> "SitePredictor":
        """The sub-database of sites that actually occur in ``profile``.

        Used to report the paper's true-prediction Sites Used column, which
        counts only the training sites that matched the test execution.
        """
        if profile.level != self.level:
            raise ValueError(
                f"profile level {profile.level} does not match "
                f"predictor level {self.level}"
            )
        matched = frozenset(key for key in self.sites if key in profile)
        return SitePredictor(
            matched,
            threshold=self.threshold,
            chain_length=self.chain_length,
            size_rounding=self.size_rounding,
            program=self.program,
        )


class SizeOnlyPredictor(LifetimePredictor):
    """Predicts short-lived objects from the requested size alone (Table 5)."""

    def __init__(self, sizes: FrozenSet[int], threshold: int, program: str = "?"):
        self.sizes = sizes
        self.threshold = threshold
        self.program = program

    @property
    def site_count(self) -> int:
        return len(self.sizes)

    def _predict(self, chain: CallChain, size: int) -> bool:
        return size in self.sizes


class StaticEscapePredictor(LifetimePredictor):
    """Predicts short-lived objects from a static escape classification.

    The database comes from :mod:`repro.static.escape` — no profiling
    run involved — and maps ``(cycle-pruned chain, size)`` keys to an
    escape class: ``"short"``, ``"escaping"``, or ``"unknown"``.  A size
    of ``None`` is the fold-failure wildcard matching every dynamic
    size.  An allocation is predicted short-lived only when at least one
    database entry matches it and *every* matching entry (exact size and
    wildcard alike) is classified ``"short"`` — ``"escaping"`` and
    ``"unknown"`` are both conservative "no" answers, so an unknown
    escape can never be predicted short.

    This class is pure data (plain dicts of strings) so predictors cross
    process boundaries in sharded evaluation, and it lives in
    :mod:`repro.core` so the allocators and tables need no dependency on
    the static layer.
    """

    def __init__(
        self,
        classes: Dict[Tuple[Tuple[str, ...], Optional[int]], str],
        threshold: int = DEFAULT_THRESHOLD,
        program: str = "?",
    ):
        self.classes = dict(classes)
        self.threshold = threshold
        self.program = program
        self._by_chain: Dict[Tuple[str, ...], Dict[Optional[int], str]] = {}
        for (chain, size), cls in self.classes.items():
            self._by_chain.setdefault(chain, {})[size] = cls

    @property
    def site_count(self) -> int:
        """Number of sites classified short — the entries that predict."""
        return sum(1 for cls in self.classes.values() if cls == "short")

    def key_for(
        self, chain: CallChain, size: int
    ) -> Tuple[Tuple[str, ...], Optional[int]]:
        """Abstract an allocation to this database's key space."""
        return (prune_recursive_cycles(tuple(chain)), size)

    def matching_keys(
        self, chain: CallChain, size: int
    ) -> Tuple[Tuple[Tuple[str, ...], Optional[int]], ...]:
        """The database keys that match ``(chain, size)``, if any."""
        pruned = prune_recursive_cycles(tuple(chain))
        entry = self._by_chain.get(pruned)
        if not entry:
            return ()
        keys = []
        if size in entry:
            keys.append((pruned, size))
        if None in entry and size is not None:
            keys.append((pruned, None))
        return tuple(keys)

    def class_of(self, chain: CallChain, size: int) -> Optional[str]:
        """The effective class for an allocation: the worst matching entry.

        ``None`` when no entry matches (the site is outside the static
        space); otherwise ``"unknown"`` dominates ``"escaping"``
        dominates ``"short"``, mirroring :meth:`predicts_short_lived`.
        """
        matched = [self.classes[key] for key in self.matching_keys(chain, size)]
        if not matched:
            return None
        for cls in ("unknown", "escaping"):
            if cls in matched:
                return cls
        return "short"

    def _predict(self, chain: CallChain, size: int) -> bool:
        return self.class_of(chain, size) == "short"


def train_site_predictor(
    trace: TraceLike,
    threshold: int = DEFAULT_THRESHOLD,
    chain_length: Optional[int] = FULL_CHAIN,
    size_rounding: int = TRUE_PREDICTION_ROUNDING,
) -> SitePredictor:
    """Train a :class:`SitePredictor` from one execution's trace.

    Selects every site, at the requested abstraction level, whose training
    objects were all freed in under ``threshold`` bytes of allocation — the
    paper's conservative all-short-lived rule, chosen because mispredicted
    long-lived objects pollute arenas (§4.1, §5.2).  Selection reads only
    each site's maximum lifetime, a reduction of the trace's lifetime
    census (one order-independent pass per trace and threshold, keyed
    once per raw ``(chain id, size)`` pair), so a streamed or sharded
    trace trains the identical database in O(live objects) memory.
    """
    # Imported lazily: repro.obs.telemetry imports this module for
    # DEFAULT_THRESHOLD, so a top-level obs import would be circular.
    from repro.obs.spans import TRACER
    from repro.runtime.shard import lifetime_census
    from repro.runtime.stream.protocol import as_event_source

    source = as_event_source(trace)
    header = source.header
    with TRACER.span("profile.train_sites", cat="core",
                     program=header.program, dataset=header.dataset,
                     threshold=threshold):
        maxima = lifetime_census(source, threshold).max_lifetimes(
            header.chains, partial(site_key, length=chain_length,
                                   size_rounding=size_rounding),
        )
        selected = frozenset(
            key for key, lifetime in maxima.items() if lifetime < threshold
        )
    return SitePredictor(
        selected,
        threshold=threshold,
        chain_length=chain_length,
        size_rounding=size_rounding,
        program=header.program,
    )


def train_size_only_predictor(
    trace: TraceLike, threshold: int = DEFAULT_THRESHOLD
) -> SizeOnlyPredictor:
    """Train a :class:`SizeOnlyPredictor`: sizes whose objects all died young."""
    from repro.runtime.shard import lifetime_census
    from repro.runtime.stream.protocol import as_event_source

    source = as_event_source(trace)
    all_short: Dict[int, bool] = {}
    for (_, size), (objects, short, *_) in (
        lifetime_census(source, threshold).pairs.items()
    ):
        all_short[size] = all_short.get(size, True) and short == objects
    return SizeOnlyPredictor(
        frozenset(size for size, short in all_short.items() if short),
        threshold=threshold, program=source.header.program,
    )


def actual_short_lived_bytes(trace: TraceLike, threshold: int) -> int:
    """Bytes of objects that truly died under ``threshold`` — the oracle.

    This is the per-object ground truth behind the Actual Short-lived Bytes
    column: the most any site-based predictor could correctly capture.
    """
    from repro.runtime.shard import lifetime_census

    return lifetime_census(trace, threshold).short_bytes()


@dataclass(frozen=True)
class PredictionEvaluation:
    """Scoring of one predictor against one trace (columns of Tables 4-6)."""

    program: str
    dataset: str
    threshold: int
    total_sites: int
    sites_used: int
    total_bytes: int
    actual_short_bytes: int
    predicted_short_bytes: int  # correctly predicted short-lived
    error_bytes: int  # predicted short-lived but actually long-lived
    predicted_objects: int
    total_heap_refs: int
    predicted_heap_refs: int

    @property
    def actual_pct(self) -> float:
        """Actual short-lived bytes as a percentage of total bytes."""
        return _pct(self.actual_short_bytes, self.total_bytes)

    @property
    def predicted_pct(self) -> float:
        """Correctly predicted short-lived bytes, % of total bytes."""
        return _pct(self.predicted_short_bytes, self.total_bytes)

    @property
    def error_pct(self) -> float:
        """Bytes wrongly predicted short-lived, % of total bytes."""
        return _pct(self.error_bytes, self.total_bytes)

    @property
    def new_ref_pct(self) -> float:
        """Heap references to predicted objects, % of all heap references.

        The New Ref column of Table 6 — the fraction of heap references the
        segregated arenas would localize.
        """
        return _pct(self.predicted_heap_refs, self.total_heap_refs)

    @property
    def coverage_of_actual(self) -> float:
        """Correctly predicted bytes as a fraction of the oracle's bytes."""
        if self.actual_short_bytes == 0:
            return 0.0
        return self.predicted_short_bytes / self.actual_short_bytes


def evaluate(
    predictor: LifetimePredictor,
    trace: TraceLike,
    count_matched_sites: bool = True,
) -> PredictionEvaluation:
    """Score ``predictor`` on ``trace``.

    ``total_sites`` reports the number of distinct sites in the test trace
    at the predictor's own abstraction level (for a size-only predictor,
    the number of distinct sizes).  When ``count_matched_sites`` is true
    and the predictor is site-based, the Sites Used column counts only the
    database entries that matched some test allocation, matching how the
    paper reports true prediction.

    Scoring reads the trace's lifetime census at the predictor's
    threshold — objects, short-lived objects and touches per raw
    ``(chain id, size)`` pair — asking the predictor once per pair and
    rebuilding byte sums as count x size, so a streamed or sharded trace
    evaluates to exactly the numbers the materialized one does.  Test
    and matched keys live in the predictor's own key space: its site key
    (site and static predictors; a static hit matches every database
    entry that covers it) or the size (every other family).
    """
    from repro.obs.spans import TRACER  # lazy: see train_site_predictor
    from repro.runtime.shard import lifetime_census
    from repro.runtime.stream.protocol import as_event_source

    source = as_event_source(trace)
    header = source.header
    with TRACER.span("predict.evaluate", cat="core",
                     program=header.program, dataset=header.dataset):
        census = lifetime_census(source, predictor.threshold)
        site_based = isinstance(predictor, SitePredictor)
        static = isinstance(predictor, StaticEscapePredictor)
        chain_of = header.chains.chain
        total_bytes = actual_short = predicted_short = error_bytes = 0
        predicted_objects = predicted_refs = 0
        matched_keys: Set = set()
        test_keys: Set = set()
        for (chain_id, size), (objects, short, touches, *_) in (
            census.pairs.items()
        ):
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
        len(matched_keys) if count_matched_sites else predictor.site_count
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
        total_heap_refs=source.summary.heap_refs,
        predicted_heap_refs=predicted_refs,
    )


def _pct(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return 0.0
    return 100.0 * numerator / denominator

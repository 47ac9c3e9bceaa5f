"""The lifetime census against per-object references.

Every lifetime-only result — site, CCE, multiclass and size-only
training, evaluation, the oracle and per-site attribution — is a
reduction of one per-pair census (:class:`~repro.runtime.shard.folds.
PairCensusFold`), memoized per trace and threshold.  These properties
check, on random small event streams, that doing so changes nothing:
each reduction must equal a reference written here that visits every
object (``site_key`` per object, per-object pricing), serially,
streamed, over a random two-way merge, and over ``shard_jobs=2``.

The census memo must fold one pass per (trace, threshold), be shared by
every view of one trace, and never reach a pickle.  The verdict memo on
:meth:`~repro.core.predictor.LifetimePredictor.predicts_short_lived`
must never reach a saved database or a pickle, and it must key on the
chain's value, not its identity.
"""

from __future__ import annotations

import pickle
import random
import tempfile
from contextlib import ExitStack
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alloc.bsd import bucket_for
from repro.alloc.costs import DEFAULT_COST_MODEL
from repro.alloc.firstfit import ALIGNMENT, HEADER_SIZE
from repro.alloc.spec import PAPER_DEFAULT_SPEC
from repro.analysis.experiments import TraceStore
from repro.analysis.simulate import simulate_spec
from repro.core.cce import encrypt_chain, train_cce_predictor
from repro.core.database import save_predictor
from repro.core.multiclass import train_multiclass_predictor
from repro.core.predictor import (
    PredictionEvaluation,
    SitePredictor,
    SizeOnlyPredictor,
    StaticEscapePredictor,
    actual_short_lived_bytes,
    evaluate,
    train_site_predictor,
    train_size_only_predictor,
)
from repro.core.sites import (
    FULL_CHAIN,
    prune_recursive_cycles,
    round_size,
    site_key,
)
from repro.obs.attrib import ATTRIB_PROFILES, attribute_sites
from repro.runtime.heap import TracedHeap
from repro.runtime.shard import (
    PairCensusFold,
    lifetime_census,
)
from repro.runtime.stream.protocol import (
    EventSource,
    TraceEventSource,
    iter_object_lifetimes,
)
from repro.runtime.stream.v3 import TraceFileSource, write_trace_v3
from tests.conftest import make_churn_trace

LEVELS = [
    (length, rounding)
    for length in (FULL_CHAIN, 1, 2, 3, 4, 5, 6, 7)
    for rounding in (1, 4)
]
STATIC_CLASSES = ("short", "escaping", "unknown")

# Few function names and deep chains, so recursion cycles (and hence
# pruning) are common; sizes straddle multiples of four.
chains = st.lists(st.sampled_from(("main", "a", "b", "c", "d")),
                  min_size=1, max_size=9).map(tuple)


@st.composite
def streams(draw):
    """An op list whose allocations draw from a few chains and sizes,
    so most (chain id, size) pairs recur with different lifetimes; long
    enough to span many 3-event chunks."""
    pool = draw(st.lists(chains, min_size=1, max_size=4))
    alloc = st.tuples(st.just("alloc"), st.sampled_from(pool),
                      st.integers(1, 12))
    free = st.tuples(st.just("free"), st.integers(0, 63))
    touch = st.tuples(st.just("touch"), st.integers(0, 63),
                      st.integers(1, 3))
    return draw(st.lists(st.one_of(alloc, alloc, free, free, touch),
                         min_size=20, max_size=120).filter(
        lambda seq: sum(item[0] == "alloc" for item in seq) >= 4))


ops = streams()
#: Where the threshold falls among the trace's own lifetimes, in
#: permille, so it splits the objects instead of missing them all.
thresholds = st.integers(0, 1000)


def pick_threshold(trace, permille):
    """A lifetime of ``trace`` (odd permille: one past it), so objects
    right at the boundary land on both sides across examples."""
    lifetimes = sorted(trace.lifetime_of(obj_id)
                       for obj_id in range(trace.total_objects))
    return lifetimes[permille * (len(lifetimes) - 1) // 1000] + permille % 2


def build_trace(seq):
    """Replay ``seq`` on a fresh heap; unfreed objects die at exit."""
    heap = TracedHeap("prop", dataset="prop")
    live = []
    for op in seq:
        if op[0] == "alloc":
            with ExitStack() as stack:
                for name in op[1]:
                    stack.enter_context(heap.frame(name))
                live.append(heap.malloc(op[2]))
        elif live:
            obj = live[op[1] % len(live)]
            if op[0] == "free":
                live.remove(obj)
                heap.free(obj)
            else:
                heap.touch(obj, op[2])
    return heap.finish()


def static_predictor(trace, seed, threshold):
    """A random static database over the trace's own pruned chains."""
    rng = random.Random(seed)
    classes = {}
    for chain in trace.chains:
        pruned = prune_recursive_cycles(chain)
        for size in rng.sample(range(1, 13), 3) + [None]:
            if rng.random() < 0.5:
                classes[(pruned, size)] = rng.choice(STATIC_CLASSES)
    return StaticEscapePredictor(classes, threshold=threshold)


# ----------------------------------------------------------------------
# Per-object references: key every object, no folds, no memo
# ----------------------------------------------------------------------

def objects(trace):
    for obj_id in range(trace.total_objects):
        yield (trace.chain_of(obj_id), trace.size_of(obj_id),
               trace.lifetime_of(obj_id), trace.touches_of(obj_id))


def reference_sites(trace, threshold, length, rounding):
    all_short = {}
    for chain, size, lifetime, _ in objects(trace):
        key = site_key(chain, size, length=length, size_rounding=rounding)
        all_short[key] = all_short.get(key, True) and lifetime < threshold
    return frozenset(key for key, short in all_short.items() if short)


def reference_sizes(trace, threshold):
    all_short = {}
    for _, size, lifetime, _ in objects(trace):
        all_short[size] = all_short.get(size, True) and lifetime < threshold
    return frozenset(size for size, short in all_short.items() if short)


def reference_evaluate(predictor, trace):
    total = actual = predicted = error = count = refs = 0
    test_keys, matched = set(), set()
    for chain, size, lifetime, touches in objects(trace):
        total += size
        short = lifetime < predictor.threshold
        actual += size if short else 0
        if isinstance(predictor, SitePredictor):
            key = site_key(chain, size, length=predictor.chain_length,
                           size_rounding=predictor.size_rounding)
            hit = key in predictor.sites
            hit_keys = [key]
        elif isinstance(predictor, StaticEscapePredictor):
            key = (prune_recursive_cycles(chain), size)
            hit = predictor.class_of(chain, size) == "short"
            hit_keys = predictor.matching_keys(chain, size)
        else:
            key = size
            hit = size in predictor.sizes
            hit_keys = [key]
        test_keys.add(key)
        if hit:
            matched.update(hit_keys)
            count += 1
            refs += touches
            if short:
                predicted += size
            else:
                error += size
    return PredictionEvaluation(
        program=trace.program, dataset=trace.dataset,
        threshold=predictor.threshold, total_sites=len(test_keys),
        sites_used=len(matched), total_bytes=total,
        actual_short_bytes=actual, predicted_short_bytes=predicted,
        error_bytes=error, predicted_objects=count,
        total_heap_refs=trace.heap_refs, predicted_heap_refs=refs,
    )


def reference_cce(trace, threshold, rounding=4):
    all_short = {}
    for chain, size, lifetime, _ in objects(trace):
        key = (encrypt_chain(chain), round_size(size, rounding))
        all_short[key] = all_short.get(key, True) and lifetime < threshold
    return frozenset(key for key, short in all_short.items() if short)


def reference_classes(trace, ladder, length, rounding):
    longest = {}
    for chain, size, lifetime, _ in objects(trace):
        key = site_key(chain, size, length=length, size_rounding=rounding)
        longest[key] = max(longest.get(key, lifetime), lifetime)
    classes = {}
    for key, lifetime in longest.items():
        for klass, bound in enumerate(ladder):
            if lifetime < bound:
                classes[key] = klass
                break
    return classes


def reference_attribution(trace, profile, predictor, threshold):
    """Per-object pricing: each object one alloc/free pair, no census."""
    model = DEFAULT_COST_MODEL
    sites = {}
    for chain, size, lifetime, touches in objects(trace):
        site = sites.setdefault(chain, dict.fromkeys((
            "objects", "bytes", "touches", "short_objects", "short_bytes",
            "predicted_objects", "alloc_instr", "free_instr",
            "occupancy_byte_time", "frag_bytes", "frag_byte_time",
            "late_free", "late_free_byte_time", "missed_short",
            "missed_short_bytes"), 0))
        short = lifetime < threshold
        ff_padding = -(-size // ALIGNMENT) * ALIGNMENT + HEADER_SIZE - size
        site["objects"] += 1
        site["bytes"] += size
        site["touches"] += touches
        site["occupancy_byte_time"] += size * lifetime
        site["short_objects"] += short
        site["short_bytes"] += size if short else 0
        if profile == "bsd":
            alloc, free = model.bsd_alloc_base, model.bsd_free
            frag = (1 << bucket_for(size)) - size
        elif profile == "firstfit":
            alloc, free = model.ff_alloc_base, model.ff_free_base
            frag = ff_padding
        elif predictor is not None and predictor.predicts_short_lived(
                chain, size):
            site["predicted_objects"] += 1
            alloc = model.predict + model.arena_bump
            free, frag = model.arena_free, 0
            if not short:
                site["late_free"] += 1
                site["late_free_byte_time"] += size * (lifetime - threshold)
        else:
            alloc = model.predict + model.ff_alloc_base
            free, frag = model.ff_free_base, ff_padding
            if short:
                site["missed_short"] += 1
                site["missed_short_bytes"] += size
        site["alloc_instr"] += alloc
        site["free_instr"] += free
        site["frag_bytes"] += frag
        site["frag_byte_time"] += frag * lifetime
    for site in sites.values():
        site["total_instr"] = site["alloc_instr"] + site["free_instr"]
        site["mispredictions"] = site["late_free"] + site["missed_short"]
    return sites


def check_against_reference(trace, source, threshold, levels, seed):
    """Every census reduction on ``source`` against the references."""
    for length, rounding in levels:
        site = train_site_predictor(source, threshold=threshold,
                                    chain_length=length,
                                    size_rounding=rounding)
        assert site.sites == reference_sites(trace, threshold, length,
                                             rounding), (length, rounding)
        assert evaluate(site, source) == reference_evaluate(site, trace)
        ladder = (threshold, threshold * 2 + 1)
        classes = train_multiclass_predictor(
            source, thresholds=ladder, chain_length=length,
            size_rounding=rounding,
        ).site_classes
        assert classes == reference_classes(trace, ladder, length, rounding)
    assert train_cce_predictor(source, threshold=threshold).keys == (
        reference_cce(trace, threshold))
    size_only = train_size_only_predictor(source, threshold=threshold)
    assert size_only.sizes == reference_sizes(trace, threshold)
    assert evaluate(size_only, source) == reference_evaluate(size_only, trace)
    static = static_predictor(trace, seed, threshold)
    assert evaluate(static, source) == reference_evaluate(static, trace)
    assert actual_short_lived_bytes(source, threshold) == sum(
        size for _, size, lifetime, _ in objects(trace)
        if lifetime < threshold
    )
    site = train_site_predictor(source, threshold=threshold)
    for profile in ATTRIB_PROFILES:
        for predictor in (None, site, static):
            priced = attribute_sites(source, profile=profile,
                                     predictor=predictor,
                                     threshold=threshold)
            assert priced.threshold == threshold
            assert {chain: record.to_dict()
                    for chain, record in priced.sites.items()} == (
                reference_attribution(trace, profile, predictor, threshold)
            ), (profile, predictor)


class TestPairFoldsMatchPerObjectReference:
    @settings(max_examples=100, deadline=None)
    @given(ops, thresholds, st.integers(0, 2**16))
    def test_serial(self, seq, permille, seed):
        trace = build_trace(seq)
        check_against_reference(trace, trace, pick_threshold(trace, permille),
                                LEVELS, seed)

    @settings(max_examples=30, deadline=None)
    @given(ops, thresholds, st.integers(0, 2**16))
    def test_serial_stream(self, seq, permille, seed):
        trace = build_trace(seq)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prop.rtr3"
            write_trace_v3(TraceEventSource(trace), path, chunk_events=3)
            check_against_reference(trace, TraceFileSource(path),
                                    pick_threshold(trace, permille),
                                    LEVELS, seed)

    @settings(max_examples=100, deadline=None)
    @given(ops, thresholds, st.integers(0, 2**16))
    def test_merged_partition(self, seq, permille, seed):
        """Any two-way split of the objects, folded apart and merged in
        either order, reduces to the references — the shard engine's
        merge contract without the process pool.  The merged census is
        planted in the trace's memo, so every consumer reads it."""
        trace = build_trace(seq)
        threshold = pick_threshold(trace, permille)
        rng = random.Random(seed)
        halves = ([], [])
        for record in iter_object_lifetimes(TraceEventSource(trace)):
            halves[rng.random() < 0.5].append(record)

        def merged(flip):
            folds = [PairCensusFold(threshold), PairCensusFold(threshold)]
            for fold, records in zip(folds, halves):
                for record in records:
                    fold.add(*record)
            first, second = folds[::-1] if flip else folds
            first.merge(second)
            return first

        for flip in (False, True):
            census = merged(flip)
            trace._census = {threshold: census}
            check_against_reference(trace, trace, threshold, LEVELS, seed)
            assert trace._census == {threshold: census}

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops, thresholds, st.sampled_from(LEVELS), st.integers(0, 2**16))
    def test_sharded_two_jobs(self, seq, permille, level, seed):
        trace = build_trace(seq)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prop.rtr3"
            # Tiny chunks, so objects routinely cross shard boundaries.
            write_trace_v3(TraceEventSource(trace), path, chunk_events=3)
            source = TraceFileSource(path, shard_jobs=2)
            check_against_reference(trace, source,
                                    pick_threshold(trace, permille),
                                    [level], seed)


# ----------------------------------------------------------------------
# The census memo
# ----------------------------------------------------------------------

class CountingSource(EventSource):
    """Wraps a source and counts full passes over its events."""

    def __init__(self, inner):
        self.inner = inner
        self.passes = 0

    @property
    def header(self):
        return self.inner.header

    @property
    def summary(self):
        return self.inner.summary

    def events(self):
        self.passes += 1
        return self.inner.events()


def _lifetime_consumers(source, threshold):
    """Train, train size-only, evaluate ten times, oracle, attribute."""
    site = train_site_predictor(source, threshold=threshold)
    size_only = train_size_only_predictor(source, threshold=threshold)
    for _ in range(5):
        evaluate(site, source)
        evaluate(size_only, source)
    actual_short_lived_bytes(source, threshold)
    attribute_sites(source, predictor=site)


class TestCensusMemo:
    def test_one_pass_per_threshold(self, tmp_path):
        trace = make_churn_trace()
        path = tmp_path / "churn.rtr3"
        write_trace_v3(TraceEventSource(trace), path, chunk_events=64)
        for inner in (TraceEventSource(trace), TraceFileSource(path)):
            source = CountingSource(inner)
            _lifetime_consumers(source, 4096)
            assert source.passes == 1
            _lifetime_consumers(source, 4096)
            train_cce_predictor(source, threshold=4096)
            train_multiclass_predictor(source)
            assert source.passes == 1
            _lifetime_consumers(source, 8192)
            assert source.passes == 2

    def test_trace_views_share_one_census(self, monkeypatch):
        trace = make_churn_trace()
        passes = []
        events = TraceEventSource.events

        def counting(self):
            passes.append(1)
            return events(self)

        monkeypatch.setattr(TraceEventSource, "events", counting)
        census = lifetime_census(TraceEventSource(trace), 4096)
        assert lifetime_census(trace, 4096) is census
        assert lifetime_census(TraceEventSource(trace), 4096) is census
        assert lifetime_census(TraceEventSource(trace)) is census
        _lifetime_consumers(TraceEventSource(trace), 4096)
        assert len(passes) == 1

    def test_pickle_carries_no_census(self, tmp_path):
        trace = make_churn_trace()
        path = tmp_path / "churn.rtr3"
        write_trace_v3(TraceEventSource(trace), path, chunk_events=64)
        for holder in (trace, TraceFileSource(path),
                       TraceFileSource(path, shard_jobs=2)):
            cold = pickle.dumps(holder)
            census = lifetime_census(holder, 4096)
            assert census.pairs and holder._census
            assert pickle.dumps(holder) == cold
            clone = pickle.loads(cold)
            assert "_census" not in vars(clone)
            assert lifetime_census(clone, 4096).pairs == census.pairs
            assert lifetime_census(clone, 4096) is not census

    def test_streaming_store_hands_out_one_source(self, tmp_path):
        # The first store runs the workload; the second opens its file.
        TraceStore(scale=0.02, cache_dir=tmp_path).source("cfrac", "tiny")
        store = TraceStore(scale=0.02, cache_dir=tmp_path)
        source = store.source("cfrac", "tiny")
        assert isinstance(source, TraceFileSource)
        assert store.source("cfrac", "tiny") is source
        census = lifetime_census(source, 4096)
        assert lifetime_census(store.source("cfrac", "tiny"), 4096) is census


# ----------------------------------------------------------------------
# The verdict memo
# ----------------------------------------------------------------------

def _families(trace):
    return {
        "site": train_site_predictor(trace, threshold=4096),
        "size-only": train_size_only_predictor(trace, threshold=4096),
        "cce": train_cce_predictor(trace, threshold=4096),
        "static": static_predictor(trace, 7, 4096),
        "multiclass": train_multiclass_predictor(trace,
                                                 thresholds=(4096, 65536)),
    }


class TestVerdictMemo:
    def test_replay_leaves_saved_database_unchanged(self, cfrac_tiny,
                                                    tmp_path):
        for kind, predictor in _families(cfrac_tiny).items():
            if kind == "multiclass":
                continue  # no database format
            path = tmp_path / f"{kind}.sites"
            save_predictor(predictor, path)
            cold = path.read_bytes()
            simulate_spec(cfrac_tiny, PAPER_DEFAULT_SPEC, predictor)
            assert predictor._verdicts, kind
            save_predictor(predictor, path)
            assert path.read_bytes() == cold, kind

    def test_pickle_carries_no_memo(self, cfrac_tiny):
        for kind, predictor in _families(cfrac_tiny).items():
            cold = pickle.dumps(predictor)
            simulate_spec(cfrac_tiny, PAPER_DEFAULT_SPEC, predictor)
            assert predictor._verdicts, kind
            assert pickle.dumps(predictor) == cold, kind
            clone = pickle.loads(cold)
            assert "_verdicts" not in vars(clone), kind
            for chain, size in predictor._verdicts:
                assert clone.predicts_short_lived(chain, size) == (
                    predictor.predicts_short_lived(chain, size)
                ), kind

    def test_equal_chain_from_a_different_object_hits_the_memo(self):
        trace = make_churn_trace()
        for kind, predictor in _families(trace).items():
            verdicts = {}
            for obj_id in range(trace.total_objects):
                chain = trace.chain_of(obj_id)
                size = trace.size_of(obj_id)
                verdicts[(chain, size)] = predictor.predicts_short_lived(
                    chain, size)
            cached = len(predictor._verdicts)
            for (chain, size), verdict in verdicts.items():
                twin = tuple(list(chain))
                assert twin == chain and twin is not chain
                assert predictor.predicts_short_lived(twin, size) == verdict
            assert len(predictor._verdicts) == cached, kind
            assert any(verdicts.values()), kind

"""Per-pair lifetime folds against a per-object reference.

Training and evaluation fold each raw ``(chain id, size)`` pair and key
it once (:mod:`repro.runtime.shard.folds`).  These properties check, on
random small event streams, that doing so changes nothing: the folds'
predictors and evaluations must equal a reference that calls
``site_key`` on every object, serially and over ``shard_jobs=2``.

The second half checks the verdict memo on
:meth:`~repro.core.predictor.LifetimePredictor.predicts_short_lived`:
it must never reach a saved database or a pickle, and it must key on
the chain's value, not its identity.
"""

from __future__ import annotations

import pickle
import random
import tempfile
from contextlib import ExitStack
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alloc.spec import PAPER_DEFAULT_SPEC
from repro.analysis.simulate import simulate_spec
from repro.core.cce import train_cce_predictor
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
from repro.core.sites import FULL_CHAIN, prune_recursive_cycles, site_key
from repro.runtime.heap import TracedHeap
from repro.runtime.shard import (
    EvaluateFold,
    ShardedTraceSource,
    SiteSelectFold,
    SizeOnlyFold,
)
from repro.runtime.stream.protocol import (
    TraceEventSource,
    iter_object_lifetimes,
)
from repro.runtime.stream.v3 import write_trace_v3
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


def check_against_reference(trace, source, permille, levels, seed):
    """Train and evaluate on ``source``; compare with the references."""
    threshold = pick_threshold(trace, permille)
    for length, rounding in levels:
        site = train_site_predictor(source, threshold=threshold,
                                    chain_length=length,
                                    size_rounding=rounding)
        assert site.sites == reference_sites(trace, threshold, length,
                                             rounding), (length, rounding)
        assert evaluate(site, source) == reference_evaluate(site, trace)
    size_only = train_size_only_predictor(source, threshold=threshold)
    assert size_only.sizes == reference_sizes(trace, threshold)
    assert evaluate(size_only, source) == reference_evaluate(size_only, trace)
    static = static_predictor(trace, seed, threshold)
    assert evaluate(static, source) == reference_evaluate(static, trace)
    assert actual_short_lived_bytes(source, threshold) == sum(
        size for _, size, lifetime, _ in objects(trace)
        if lifetime < threshold
    )


class TestPairFoldsMatchPerObjectReference:
    @settings(max_examples=100, deadline=None)
    @given(ops, thresholds, st.integers(0, 2**16))
    def test_serial(self, seq, permille, seed):
        trace = build_trace(seq)
        check_against_reference(trace, trace, permille, LEVELS, seed)

    @settings(max_examples=30, deadline=None)
    @given(ops, thresholds, st.integers(0, 2**16))
    def test_serial_stream(self, seq, permille, seed):
        trace = build_trace(seq)
        check_against_reference(trace, TraceEventSource(trace), permille,
                                LEVELS, seed)

    @settings(max_examples=100, deadline=None)
    @given(ops, thresholds, st.integers(0, 2**16))
    def test_merged_partition(self, seq, permille, seed):
        """Any two-way split of the objects, folded apart and merged in
        either order, equals the reference — the shard engine's merge
        contract without the process pool."""
        trace = build_trace(seq)
        threshold = pick_threshold(trace, permille)
        rng = random.Random(seed)
        halves = ([], [])
        for record in iter_object_lifetimes(TraceEventSource(trace)):
            halves[rng.random() < 0.5].append(record)

        def merged(factory, flip):
            folds = [factory(), factory()]
            for fold, records in zip(folds, halves):
                for record in records:
                    fold.add(*record)
            first, second = folds[::-1] if flip else folds
            first.merge(second)
            return first

        for flip in (False, True):
            for length, rounding in LEVELS:
                fold = merged(lambda: SiteSelectFold(
                    trace.chains, length, rounding), flip)
                assert fold.short_lived_sites(threshold) == reference_sites(
                    trace, threshold, length, rounding)
            sizes = merged(lambda: SizeOnlyFold(threshold), flip)
            assert sizes.short_lived_sizes() == reference_sizes(
                trace, threshold)
            source = TraceEventSource(trace)
            for predictor in (
                train_site_predictor(trace, threshold=threshold),
                train_size_only_predictor(trace, threshold=threshold),
                static_predictor(trace, seed, threshold),
            ):
                fold = merged(lambda: EvaluateFold(predictor, trace.chains),
                              flip)
                assert fold.result(source.header, source.summary) == (
                    reference_evaluate(predictor, trace))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops, thresholds, st.sampled_from(LEVELS), st.integers(0, 2**16))
    def test_sharded_two_jobs(self, seq, permille, level, seed):
        trace = build_trace(seq)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prop.rtr3"
            # Tiny chunks, so objects routinely cross shard boundaries.
            write_trace_v3(TraceEventSource(trace), path, chunk_events=3)
            source = ShardedTraceSource(path, jobs=2)
            check_against_reference(trace, source, permille, [level], seed)


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

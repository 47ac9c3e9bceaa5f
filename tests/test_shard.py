"""Sharded replay: partition/fold/merge parity with the serial stream.

Covers ISSUE 6's cross-shard lifetime requirements with a synthetic
churn trace written at tiny chunk sizes (7 events per chunk against a
free window of ~12 events, so *every* churn object is allocated in one
chunk and freed in a later one), plus single-chunk and
chunk-boundary-exact traces, the shard planner's invariants, the
chunk-reader's corruption checks, and the CLI's new ``--jobs``
behaviours (guards, fallbacks, and the merged-metrics fix).
"""

from __future__ import annotations

import pytest

import repro.cli as cli
from repro.analysis.simulate import simulate_arena, simulate_firstfit
from repro.cli import main
from repro.core.predictor import (
    actual_short_lived_bytes,
    evaluate,
    train_site_predictor,
    train_size_only_predictor,
)
from repro.obs.metrics import Metrics
from repro.runtime.shard import (
    PairCensusFold,
    ShardedTraceSource,
    fold_object_lifetimes,
    plan_shards,
)
from repro.runtime.shard.engine import _shard_worker
from repro.runtime.stream.protocol import (
    EV_ALLOC,
    EV_FREE,
    TraceEventSource,
    iter_object_lifetimes,
    stream_live_stats,
)
from repro.runtime.stream.v3 import (
    TraceFileSource,
    read_chunk_events,
    write_trace_v3,
)
from repro.runtime.tracefile import TraceFormatError
from tests.conftest import make_churn_trace

THRESHOLD = 4096


def _lossy_worker(path, data_end, shard, fold, trace_spans=False):
    """A corrupted `_shard_worker`: shard 0 "loses" its live handoff.

    Module-level so the process pool can pickle it by reference.
    """
    fold, opens, closes, spans = _shard_worker(
        path, data_end, shard, fold, trace_spans
    )
    return fold, ({} if shard.index == 0 else opens), closes, spans


@pytest.fixture(scope="module")
def churn_v3(tmp_path_factory):
    """A churn trace in v3 form with 7-event chunks (~170 chunks).

    The churn loop frees each object ~12 events after its allocation,
    so with 7-event chunks every object's alloc and free land in
    different chunks — the cross-shard handoff is exercised by every
    single object, not by a lucky few.
    """
    path = tmp_path_factory.mktemp("shard") / "churn.rtr3"
    trace = make_churn_trace(objects=600)
    write_trace_v3(TraceEventSource(trace), path, chunk_events=7)
    return path


@pytest.fixture(scope="module")
def serial_source(churn_v3):
    return TraceFileSource(churn_v3)


@pytest.fixture(scope="module")
def sharded_source(churn_v3):
    return ShardedTraceSource(churn_v3, jobs=2)


class TestPlanShards:
    def test_partition_covers_index_contiguously(self, serial_source):
        chunks = serial_source.chunk_index
        shards = plan_shards(chunks, 3,
                             event_count=serial_source.summary.event_count)
        assert len(shards) == 3
        rebuilt = tuple(c for shard in shards for c in shard.chunks)
        assert rebuilt == chunks
        assert [s.index for s in shards] == [0, 1, 2]

    def test_partition_is_balanced(self, serial_source):
        shards = plan_shards(serial_source.chunk_index, 4)
        counts = [s.event_count for s in shards]
        # Chunks hold 7 events, so no boundary is forced off the even
        # split by more than one chunk.
        assert max(counts) - min(counts) <= 7

    def test_jobs_one_is_a_single_shard(self, serial_source):
        shards = plan_shards(serial_source.chunk_index, 1)
        assert len(shards) == 1
        assert shards[0].chunks == serial_source.chunk_index

    def test_more_jobs_than_chunks_caps_at_chunks(self):
        index = ((10, 5), (20, 5), (30, 5))
        shards = plan_shards(index, 16)
        assert len(shards) == 3
        assert all(len(s.chunks) == 1 for s in shards)

    def test_empty_index(self):
        assert plan_shards((), 4) == ()

    def test_event_count_mismatch_raises(self, serial_source):
        with pytest.raises(TraceFormatError, match="chunk index declares"):
            plan_shards(serial_source.chunk_index, 2, event_count=1)

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            plan_shards(((0, 1),), 0)


class TestShardedSource:
    def test_events_byte_identical_to_serial(
        self, serial_source, sharded_source
    ):
        assert list(sharded_source.events()) == list(serial_source.events())

    def test_events_reiterable(self, sharded_source):
        first = list(sharded_source.events())
        assert list(sharded_source.events()) == first

    def test_jobs_one_falls_back_serially(self, churn_v3, serial_source):
        source = ShardedTraceSource(churn_v3, jobs=1)
        assert list(source.events()) == list(serial_source.events())

    def test_single_chunk_trace_parity(self, tmp_path):
        trace = make_churn_trace(objects=50)
        path = tmp_path / "one-chunk.rtr3"
        write_trace_v3(TraceEventSource(trace), path, chunk_events=10**6)
        serial = TraceFileSource(path)
        assert len(serial.chunk_index) == 1
        sharded = ShardedTraceSource(path, jobs=2)
        assert list(sharded.events()) == list(serial.events())

    def test_chunk_boundary_exact_trace_parity(self, tmp_path):
        # 112 churn objects -> 225 events = 15 full chunks of 15: the
        # last chunk is exactly full, so no shard sees a short tail.
        trace = make_churn_trace(objects=112)
        path = tmp_path / "exact.rtr3"
        write_trace_v3(TraceEventSource(trace), path, chunk_events=15)
        serial = TraceFileSource(path)
        assert all(count == 15 for _, count in serial.chunk_index)
        sharded = ShardedTraceSource(path, jobs=3)
        assert list(sharded.events()) == list(serial.events())
        fold = fold_object_lifetimes(
            sharded, lambda: PairCensusFold(THRESHOLD)
        )
        expected = sum(
            size
            for _, size, lifetime, _ in iter_object_lifetimes(serial)
            if lifetime < THRESHOLD
        )
        assert fold.short_bytes() == expected

    def test_bad_jobs_rejected(self, churn_v3):
        with pytest.raises(ValueError, match="jobs"):
            ShardedTraceSource(churn_v3, jobs=0)

    def test_live_stats_parity(self, serial_source, sharded_source):
        assert stream_live_stats(sharded_source) == stream_live_stats(
            serial_source
        )


class TestShardWorker:
    def test_boundaries_actually_cross(self, churn_v3, serial_source):
        """Every shard but the first resolves frees from earlier shards.

        This is the white-box proof that the parity results above go
        through the handoff frontier rather than through shards that
        happen to be self-contained.
        """
        shards = plan_shards(serial_source.chunk_index, 3)
        data_end = serial_source.data_end
        results = [
            _shard_worker(str(churn_v3), data_end, shard,
                          PairCensusFold(THRESHOLD))
            for shard in shards
        ]
        for index, (_, opens, closes, _) in enumerate(results):
            if index > 0:
                assert closes, f"shard {index} saw no cross-shard frees"
        assert results[0][1], "shard 0 handed no live objects forward"
        opened = set()
        for _, opens, closes, _ in results:
            assert opened.issuperset(closes), "free before any alloc"
            opened |= set(opens)

    def test_cross_shard_free_without_alloc_raises(
        self, churn_v3, serial_source, monkeypatch
    ):
        # Corrupt the worker's view: drop shard 0's opens so shard 1's
        # closes cannot resolve against the frontier.
        import repro.runtime.shard.engine as engine

        monkeypatch.setattr(engine, "_shard_worker", _lossy_worker)
        source = ShardedTraceSource(churn_v3, jobs=2)
        with pytest.raises(TraceFormatError, match="no allocation"):
            fold_object_lifetimes(
                source, lambda: PairCensusFold(THRESHOLD), jobs=2
            )


class TestFoldParity:
    def test_site_predictor_identical(self, serial_source, sharded_source):
        serial = train_site_predictor(serial_source, threshold=THRESHOLD)
        sharded = train_site_predictor(sharded_source, threshold=THRESHOLD)
        assert sharded.sites == serial.sites
        assert sharded.threshold == serial.threshold
        assert sharded.program == serial.program

    def test_evaluation_identical(self, serial_source, sharded_source):
        predictor = train_site_predictor(serial_source, threshold=THRESHOLD)
        assert evaluate(predictor, sharded_source) == evaluate(
            predictor, serial_source
        )

    def test_size_only_predictor_identical(
        self, serial_source, sharded_source
    ):
        serial = train_size_only_predictor(serial_source,
                                           threshold=THRESHOLD)
        sharded = train_size_only_predictor(sharded_source,
                                            threshold=THRESHOLD)
        assert sharded.sizes == serial.sizes

    def test_short_bytes_oracle_identical(
        self, serial_source, sharded_source
    ):
        assert actual_short_lived_bytes(
            sharded_source, THRESHOLD
        ) == actual_short_lived_bytes(serial_source, THRESHOLD)

    def test_serial_fallback_on_memory_source(self):
        trace = make_churn_trace(objects=80)
        source = TraceEventSource(trace)
        fold = fold_object_lifetimes(
            source, lambda: PairCensusFold(THRESHOLD), jobs=4
        )
        expected = sum(
            size
            for _, size, lifetime, _ in iter_object_lifetimes(source)
            if lifetime < THRESHOLD
        )
        assert fold.short_bytes() == expected

    def test_simulations_identical(self, serial_source, sharded_source):
        assert simulate_firstfit(sharded_source) == simulate_firstfit(
            serial_source
        )
        predictor = train_site_predictor(serial_source, threshold=THRESHOLD)
        assert simulate_arena(sharded_source, predictor) == simulate_arena(
            serial_source, predictor
        )


class TestWorkerSpans:
    """Satellite: pool workers ship their spans back to the parent tracer.

    Before this, a ``--spans-out`` trace of a ``--jobs`` run showed a
    gap where the workers ran; now the worker-side ``shard.fold`` /
    ``shard.decode`` spans are absorbed onto worker lanes (tid >= 2).
    """

    def test_fold_workers_report_spans(self, churn_v3):
        from repro.obs.spans import TRACER

        TRACER.reset()
        TRACER.enable()
        try:
            source = ShardedTraceSource(churn_v3, jobs=2)
            fold_object_lifetimes(
                source, lambda: PairCensusFold(THRESHOLD), jobs=2
            )
            folds = TRACER.find("shard.fold")
        finally:
            TRACER.disable()
            TRACER.reset()
        assert len(folds) >= 2
        assert all(span.tid >= 2 for span in folds)
        assert {span.args["shard"] for span in folds} == {
            i for i in range(len(folds))
        }

    def test_decode_workers_report_spans(self, churn_v3, serial_source):
        from repro.obs.spans import TRACER

        TRACER.reset()
        TRACER.enable()
        try:
            source = ShardedTraceSource(churn_v3, jobs=2)
            assert list(source.events()) == list(serial_source.events())
            decodes = TRACER.find("shard.decode")
        finally:
            TRACER.disable()
            TRACER.reset()
        assert len(decodes) == len(serial_source.chunk_index)
        assert all(span.tid >= 2 for span in decodes)

    def test_disabled_tracer_ships_no_spans(self, churn_v3):
        from repro.obs.spans import TRACER

        assert not TRACER.enabled
        source = ShardedTraceSource(churn_v3, jobs=2)
        fold_object_lifetimes(
            source, lambda: PairCensusFold(THRESHOLD), jobs=2
        )
        assert TRACER.spans == []

    def test_chrome_trace_carries_worker_lanes(self, churn_v3):
        from repro.obs.spans import TRACER, chrome_trace

        TRACER.reset()
        TRACER.enable()
        try:
            source = ShardedTraceSource(churn_v3, jobs=2)
            fold_object_lifetimes(
                source, lambda: PairCensusFold(THRESHOLD), jobs=2
            )
            document = chrome_trace(TRACER)
        finally:
            TRACER.disable()
            TRACER.reset()
        tids = {
            event["tid"]
            for event in document["traceEvents"]
            if event.get("ph") == "X" and event["name"] == "shard.fold"
        }
        assert tids and all(tid >= 2 for tid in tids)


class TestChunkReader:
    def test_wrong_count_raises(self, churn_v3, serial_source):
        offset, count = serial_source.chunk_index[0]
        with pytest.raises(TraceFormatError, match="index declares"):
            read_chunk_events(churn_v3, offset, count + 1,
                              serial_source.data_end)

    def test_wrong_frame_kind_raises(self, churn_v3, serial_source):
        # Offset 8 is the header frame (right after the 8-byte magic).
        with pytest.raises(TraceFormatError, match="chunk index points"):
            read_chunk_events(churn_v3, 8, 1, serial_source.data_end)

    def test_reads_one_chunk(self, churn_v3, serial_source):
        offset, count = serial_source.chunk_index[0]
        events = read_chunk_events(churn_v3, offset, count,
                                   serial_source.data_end)
        assert len(events) == count
        assert all(ev[0] in (EV_ALLOC, EV_FREE) for ev in events)


class TestCliJobs:
    def test_warm_no_cache_jobs_warns(self, capsys):
        assert main([
            "warm", "--no-cache", "--jobs", "2", "--scale", "0.02",
        ]) == 0
        err = capsys.readouterr().err
        assert "warming serially" in err

    def test_table_no_cache_jobs_falls_back_serial(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            cli, "_TABLES",
            {k: cli._TABLES[k] for k in ("1", "2")},
        )
        assert main([
            "table", "all", "--no-cache", "--jobs", "2", "--scale", "0.02",
        ]) == 0
        captured = capsys.readouterr()
        assert "rendering serially" in captured.err
        assert "Table 1" in captured.out

    def test_table_parallel_output_and_metrics_match_serial(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            cli, "_TABLES",
            {k: cli._TABLES[k] for k in ("1", "2")},
        )
        cache_dir = str(tmp_path / "cache")
        assert main([
            "table", "all", "--scale", "0.02", "--cache-dir", cache_dir,
        ]) == 0
        serial_out = capsys.readouterr().out
        fresh = Metrics()
        monkeypatch.setattr(cli, "METRICS", fresh)
        assert main([
            "table", "all", "--scale", "0.02", "--cache-dir", cache_dir,
            "--jobs", "2", "--stream",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out
        # The merged gauge proves worker snapshots reached the parent:
        # the parent never records peak RSS into this fresh registry
        # before the merge, and merge max-folds rather than sums.
        assert fresh.counter("peak_rss_kb") > 0
        assert "peak rss:" in captured.err

    def test_table_single_table_jobs_without_stream_notes(self, capsys):
        assert main([
            "table", "1", "--no-cache", "--jobs", "2", "--scale", "0.02",
        ]) == 0
        assert "add --stream" in capsys.readouterr().err

    def test_stats_jobs_requires_stream(self, capsys):
        assert main([
            "stats", "--program", "gawk", "--jobs", "2", "--scale", "0.02",
            "--no-cache",
        ]) == 1
        assert "add --stream" in capsys.readouterr().err

    def test_simulate_jobs_requires_stream(self, tmp_path, capsys):
        trace = tmp_path / "t.rtr3"
        write_trace_v3(
            TraceEventSource(make_churn_trace(objects=60)), trace,
            chunk_events=16,
        )
        assert main([
            "simulate", str(trace), "--allocator", "firstfit",
            "--jobs", "2",
        ]) == 1
        assert "add --stream" in capsys.readouterr().err

    def test_simulate_jobs_v2_trace_falls_back(self, tmp_path, capsys):
        from repro.runtime.tracefile import save_trace

        trace = tmp_path / "t.json.gz"
        save_trace(make_churn_trace(objects=60), trace)
        assert main([
            "simulate", str(trace), "--allocator", "firstfit",
            "--stream", "--jobs", "2",
        ]) == 0
        assert "replaying serially" in capsys.readouterr().err

    def test_simulate_sharded_output_byte_identical(self, tmp_path, capsys):
        trace = tmp_path / "t.rtr3"
        write_trace_v3(
            TraceEventSource(make_churn_trace(objects=200)), trace,
            chunk_events=16,
        )
        assert main([
            "simulate", str(trace), "--allocator", "firstfit", "--stream",
        ]) == 0
        serial = capsys.readouterr()
        assert main([
            "simulate", str(trace), "--allocator", "firstfit", "--stream",
            "--jobs", "2",
        ]) == 0
        sharded = capsys.readouterr()
        assert sharded.out == serial.out

"""Tests for the persistent trace cache, metrics, and parallel warm."""

from __future__ import annotations

import threading

import pytest

from repro.analysis.experiments import TraceStore
from repro.obs.metrics import Metrics
from repro.analysis import trace_cache as trace_cache_mod
from repro.analysis.trace_cache import TraceCache, default_cache_dir
from repro.runtime import tracefile
from repro.runtime.shard import lifetime_census
from tests.conftest import make_churn_trace

PROGRAM = "synthetic"
DATASET = "synthetic"
SCALE = 1.0


@pytest.fixture
def cache(tmp_path):
    return TraceCache(tmp_path / "cache", metrics=Metrics())


class TestKeying:
    def test_entry_name_carries_all_key_parts(self, cache):
        path = cache.entry_path("gawk", "train", 0.5)
        assert path.name.startswith("gawk-train-scale0.5-")
        assert f"-v{tracefile.FORMAT_VERSION}-" in path.name
        assert path.name.endswith(".rtr3")

    def test_scale_changes_the_key(self, cache):
        assert cache.entry_path("gawk", "train", 1.0) != cache.entry_path(
            "gawk", "train", 0.5
        )

    def test_format_version_changes_the_key(self, cache, monkeypatch):
        before = cache.entry_path("gawk", "train", 1.0)
        monkeypatch.setattr(tracefile, "FORMAT_VERSION", 999)
        assert cache.entry_path("gawk", "train", 1.0) != before

    def test_source_hash_changes_the_key(self, cache, monkeypatch):
        before = cache.entry_path("gawk", "train", 1.0)
        monkeypatch.setattr(
            trace_cache_mod, "workloads_source_hash", lambda: "deadbeef0000"
        )
        assert cache.entry_path("gawk", "train", 1.0) != before

    def test_source_hash_is_stable_within_a_process(self):
        assert (
            trace_cache_mod.workloads_source_hash()
            == trace_cache_mod.workloads_source_hash()
        )

    def test_default_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"


class TestHitMiss:
    def test_miss_then_hit(self, cache):
        assert cache.open_stream(PROGRAM, DATASET, SCALE) is None
        assert cache.metrics.counter("trace_cache.miss") == 1

        trace = make_churn_trace(objects=40)
        cache.store(trace, SCALE)
        source = cache.open_stream(PROGRAM, DATASET, SCALE)
        assert source is not None
        assert cache.metrics.counter("trace_cache.hit") == 1
        loaded = source.trace
        assert list(loaded.events()) == list(trace.events())
        assert loaded.total_bytes == trace.total_bytes

    def test_corrupt_entry_is_a_miss_and_removed(self, cache):
        trace = make_churn_trace(objects=40)
        path = cache.store(trace, SCALE)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        assert cache.open_stream(PROGRAM, DATASET, SCALE) is None
        assert cache.metrics.counter("trace_cache.corrupt") == 1
        assert not path.exists()

        # The normal recovery: re-store and the entry works again.
        cache.store(trace, SCALE)
        assert cache.open_stream(PROGRAM, DATASET, SCALE) is not None

    def test_garbage_entry_is_a_miss(self, cache):
        path = cache.entry_path(PROGRAM, DATASET, SCALE)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not gzip at all")
        assert cache.open_stream(PROGRAM, DATASET, SCALE) is None

    def test_clear_removes_entries(self, cache):
        cache.store(make_churn_trace(objects=40), SCALE)
        assert cache.clear() == 1
        assert not cache.entry_path(PROGRAM, DATASET, SCALE).exists()

    def test_concurrent_writers_leave_a_loadable_entry(self, cache):
        trace = make_churn_trace(objects=60)
        errors = []

        def write():
            try:
                for _ in range(5):
                    cache.store(trace, SCALE)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        source = cache.open_stream(PROGRAM, DATASET, SCALE, verify=True)
        assert source is not None
        assert list(source.trace.events()) == list(trace.events())


class TestTraceStoreIntegration:
    def test_second_store_loads_from_disk(self, tmp_path):
        metrics_a = Metrics()
        store_a = TraceStore(
            scale=0.05, cache_dir=str(tmp_path), metrics=metrics_a
        )
        trace_a = store_a.trace("gawk", "tiny")
        assert metrics_a.counter("trace_cache.store") == 1
        assert metrics_a.timing("workload.run").calls == 1

        metrics_b = Metrics()
        store_b = TraceStore(
            scale=0.05, cache_dir=str(tmp_path), metrics=metrics_b
        )
        trace_b = store_b.trace("gawk", "tiny")
        assert metrics_b.counter("trace_cache.hit") == 1
        assert metrics_b.timing("workload.run").calls == 0
        assert list(trace_b.events()) == list(trace_a.events())
        assert trace_b.live_stats() == trace_a.live_stats()

    def test_memory_layer_still_memoizes(self, tmp_path):
        store = TraceStore(scale=0.05, cache_dir=str(tmp_path))
        assert store.trace("gawk", "tiny") is store.trace("gawk", "tiny")

    def test_use_cache_false_disables_disk(self, tmp_path):
        store = TraceStore(
            scale=0.05, cache_dir=str(tmp_path), use_cache=False
        )
        assert store.cache is None
        store.trace("gawk", "tiny")
        assert list(tmp_path.iterdir()) == []

    def test_no_cache_env_disables_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        store = TraceStore(scale=0.05, cache_dir=str(tmp_path))
        assert store.cache is None


@pytest.fixture
def cached_churn(tmp_path):
    """A cache directory holding a many-chunk synthetic entry."""
    from repro.runtime.stream import TraceEventSource, write_trace_v3

    trace = make_churn_trace(objects=300)
    entry = TraceCache(tmp_path).entry_path(PROGRAM, DATASET, SCALE)
    write_trace_v3(TraceEventSource(trace), entry, chunk_events=16)
    return tmp_path, trace


class TestOnePath:
    """Each execution's one source: first pass streamed, then memory."""

    def _counting(self, monkeypatch, target, name):
        calls = []
        original = getattr(target, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(target, name, counting)
        return calls

    def test_second_pass_decodes_once(self, cached_churn, monkeypatch):
        from repro.runtime.stream import TraceEventSource

        cache_dir, trace = cached_churn
        decodes = self._counting(monkeypatch, trace_cache_mod, "load_trace")
        store = TraceStore(scale=SCALE, cache_dir=cache_dir)
        source = store.source(PROGRAM, DATASET)
        assert store.source(PROGRAM, DATASET) is source
        expected = list(TraceEventSource(trace).events())
        assert list(source.events()) == expected
        assert source._memory is None and not decodes
        assert list(source.events()) == expected
        assert len(decodes) == 1
        assert list(source.events()) == expected
        decoded = store.trace(PROGRAM, DATASET)
        assert decoded is source.trace is store.trace(PROGRAM, DATASET)
        assert len(decodes) == 1

    def test_census_folds_once_across_the_switch(self, cached_churn,
                                                 monkeypatch):
        from repro.analysis.simulate import simulate_firstfit
        from repro.core.predictor import evaluate, train_site_predictor
        from repro.runtime.stream import TraceFileSource

        cache_dir, _ = cached_churn
        passes = self._counting(monkeypatch, TraceFileSource, "events")
        store = TraceStore(scale=SCALE, cache_dir=cache_dir)
        source = store.source(PROGRAM, DATASET)
        census = lifetime_census(source, 4096)
        assert len(passes) == 1
        simulate_firstfit(source)  # the second pass: decode the file
        assert len(passes) == 2
        trace = store.trace(PROGRAM, DATASET)
        assert lifetime_census(trace, 4096) is census
        assert lifetime_census(source, 4096) is census
        evaluate(train_site_predictor(trace, threshold=4096), source)
        assert len(passes) == 2

    def test_jobs_two_store_is_byte_identical(self, cached_churn):
        import json

        from repro.obs.windows import window_profile

        cache_dir, _ = cached_churn
        results = []
        for jobs in (1, 2):
            store = TraceStore(scale=SCALE, cache_dir=cache_dir, jobs=jobs)
            source = store.source(PROGRAM, DATASET)
            assert source.shard_jobs == jobs
            census = lifetime_census(source, 4096)
            windows = window_profile(source, windows=8).to_dict()
            results.append((census.pairs,
                            json.dumps(windows, sort_keys=True)))
        assert results[0] == results[1]

    def test_no_cache_runs_each_execution_once(self, monkeypatch, capsys):
        import repro.analysis.experiments as experiments
        from repro.cli import main

        runs = self._counting(monkeypatch, experiments, "run_workload")
        assert main(["table", "4", "--scale", "0.05", "--no-cache"]) == 0
        assert "Table 4" in capsys.readouterr().out
        assert len(runs) == 10


def _damage_event_frame(path):
    """Invert one byte in the middle of the file's middle event frame."""
    from repro.runtime.stream import TraceFileSource

    source = TraceFileSource(path)
    offsets = [off for off, _ in source.chunk_index] + [source.data_end]
    middle = len(source.chunk_index) // 2
    at = (offsets[middle] + offsets[middle + 1]) // 2
    data = bytearray(path.read_bytes())
    data[at] ^= 0xFF
    path.write_bytes(bytes(data))


class TestDamagedEntry:
    """Damage inside an event frame passes the open and drops the entry."""

    @pytest.fixture
    def damaged(self, cached_churn):
        cache_dir, _ = cached_churn
        metrics = Metrics()
        cache = TraceCache(cache_dir, metrics=metrics)
        entry = cache.entry_path(PROGRAM, DATASET, SCALE)
        _damage_event_frame(entry)
        return cache, entry

    @pytest.mark.parametrize("jobs, read", [
        (1, lambda source: list(source.events())),   # the streamed pass
        (1, lambda source: source.trace),            # the decode
        (2, lambda source: lifetime_census(source, 4096)),  # sharded fold
    ], ids=["stream", "decode", "sharded-fold"])
    def test_replay_drops_the_entry(self, damaged, jobs, read):
        cache, entry = damaged
        store = TraceStore(scale=SCALE, cache=cache, jobs=jobs)
        with pytest.raises(tracefile.TraceFormatError):
            read(store.source(PROGRAM, DATASET))
        assert not entry.exists()
        assert cache.metrics.counter("trace_cache.corrupt") == 1
        assert cache.open_stream(PROGRAM, DATASET, SCALE) is None

    def test_verifying_open_is_a_miss(self, damaged):
        cache, entry = damaged
        assert cache.open_stream(PROGRAM, DATASET, SCALE) is not None
        assert entry.exists()
        assert cache.open_stream(PROGRAM, DATASET, SCALE, verify=True) is None
        assert not entry.exists()
        assert cache.metrics.counter("trace_cache.miss") == 1
        assert cache.metrics.counter("trace_cache.corrupt") == 1

    def test_command_fails_once_then_reruns(self, tmp_path, capsys):
        from repro.cli import main

        args = ["stats", "--program", "cfrac", "--allocator", "firstfit",
                "--scale", "0.02", "--cache-dir", str(tmp_path)]
        TraceStore(scale=0.02, cache_dir=tmp_path).trace("cfrac", "test")
        entry = TraceCache(tmp_path).entry_path("cfrac", "test", 0.02)
        _damage_event_frame(entry)
        capsys.readouterr()

        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not entry.exists()
        assert main(args) == 0
        assert entry.exists()
        assert TraceCache(tmp_path).open_stream(
            "cfrac", "test", 0.02, verify=True
        ) is not None


class TestWarm:
    def test_serial_warm_then_full_disk_hit(self, tmp_path):
        store = TraceStore(scale=0.02, cache_dir=str(tmp_path))
        results = store.warm()
        assert len(results) == 10
        assert {r.source for r in results} == {"run"}

        fresh = TraceStore(scale=0.02, cache_dir=str(tmp_path))
        again = fresh.warm()
        assert {r.source for r in again} == {"disk"}

    def test_parallel_warm_populates_cache(self, tmp_path):
        store = TraceStore(scale=0.02, cache_dir=str(tmp_path))
        results = store.warm(jobs=2)
        assert len(results) == 10
        assert {r.source for r in results} == {"run"}
        assert [(r.program, r.dataset) for r in results] == store.warm_pairs()
        for program, dataset in store.warm_pairs():
            assert store.cache.entry_path(program, dataset, 0.02).is_file()

    def test_parallel_warm_merges_worker_metrics(self, tmp_path):
        # Regression: process-pool workers used to record their cache and
        # workload timings into their own registry and throw it away on
        # exit, so a parallel warm reported zero workload runs.
        metrics = Metrics()
        store = TraceStore(
            scale=0.02, cache_dir=str(tmp_path), metrics=metrics
        )
        store.warm(jobs=2)
        assert metrics.timing("workload.run").calls == 10
        assert metrics.counter("trace_cache.store") == 10
        assert metrics.counter("warm.run") == 10

        again = Metrics()
        fresh = TraceStore(
            scale=0.02, cache_dir=str(tmp_path), metrics=again
        )
        fresh.warm(jobs=2)
        assert again.timing("workload.run").calls == 0
        assert again.counter("trace_cache.hit") == 10

    def test_parallel_warm_without_cache_falls_back_to_serial(self):
        no_cache = TraceStore(scale=0.02, use_cache=False)
        results = no_cache.warm(jobs=4)
        assert {r.source for r in results} == {"run"}
        # Traces landed in memory despite jobs>1 (serial fallback).
        assert no_cache.trace("cfrac", "train") is no_cache.trace(
            "cfrac", "train"
        )

    def test_warm_reruns_a_damaged_entry(self, tmp_path):
        from repro.analysis.experiments import _warm_worker

        TraceStore(scale=0.02, cache_dir=str(tmp_path)).warm()
        cache = TraceCache(tmp_path)
        entry = cache.entry_path("cfrac", "test", 0.02)
        _damage_event_frame(entry)
        results = TraceStore(scale=0.02, cache_dir=str(tmp_path)).warm()
        assert {(r.program, r.dataset) for r in results
                if r.source == "run"} == {("cfrac", "test")}
        assert cache.open_stream("cfrac", "test", 0.02, verify=True)

        # A parallel warm's worker checks every frame the same way.
        _damage_event_frame(entry)
        result, _ = _warm_worker("cfrac", "test", 0.02, str(tmp_path))
        assert result.source == "run"
        assert cache.open_stream("cfrac", "test", 0.02, verify=True)


class TestMetrics:
    def test_stage_and_counters(self):
        metrics = Metrics()
        with metrics.stage("s"):
            pass
        metrics.incr("c", 2)
        metrics.incr("c")
        assert metrics.timing("s").calls == 1
        assert metrics.timing("s").seconds >= 0.0
        assert metrics.counter("c") == 3

    def test_report_mentions_everything(self):
        metrics = Metrics()
        metrics.add_time("warm", 1.25)
        metrics.incr("trace_cache.hit", 7)
        text = metrics.report("title:")
        assert "title:" in text
        assert "warm" in text
        assert "trace_cache.hit" in text
        assert "7" in text

    def test_reset(self):
        metrics = Metrics()
        metrics.incr("x")
        metrics.reset()
        assert metrics.counter("x") == 0
        assert "(no measurements recorded)" in metrics.report()

    def test_to_dict_round_trips_through_json(self):
        import json

        metrics = Metrics()
        metrics.add_time("warm", 0.5)
        metrics.add_time("warm", 0.25)
        metrics.incr("hits", 3)
        snapshot = json.loads(metrics.to_json())
        assert snapshot == metrics.to_dict()
        assert snapshot["timings"]["warm"] == {"calls": 2, "seconds": 0.75}
        assert snapshot["counters"]["hits"] == 3

    def test_merge_adds_timings_and_counters(self):
        parent = Metrics()
        parent.add_time("warm", 1.0)
        parent.incr("hits", 1)
        child = Metrics()
        child.add_time("warm", 0.5)
        child.add_time("load", 0.1)
        child.incr("hits", 2)
        child.incr("misses")

        parent.merge(child)
        assert parent.timing("warm").calls == 2
        assert parent.timing("warm").seconds == pytest.approx(1.5)
        assert parent.timing("load").calls == 1
        assert parent.counter("hits") == 3
        assert parent.counter("misses") == 1

    def test_merge_accepts_to_dict_snapshots(self):
        child = Metrics()
        child.add_time("stage", 0.2)
        child.incr("events", 5)
        parent = Metrics()
        parent.merge(child.to_dict())
        assert parent.timing("stage").calls == 1
        assert parent.counter("events") == 5

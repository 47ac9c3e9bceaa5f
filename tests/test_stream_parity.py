"""End-to-end parity: converted v3 files reproduce the tables exactly.

The acceptance test for the trace store's one path (DESIGN.md §10):
every workload is traced once, written in the legacy v2 format, pushed
through the ``convert_trace`` upgrade to chunked v3, and then replayed
through a fresh :class:`TraceStore` over those files — each execution
streamed on its first pass and decoded into memory on its second.
Tables 4, 7, and 8 rendered from the files must be *byte-identical* to
the store that ran the workloads and replays their in-memory traces,
and the trained predictor databases must serialize to identical bytes.

One module-scoped fixture runs the five workloads (train + test datasets)
at scale 0.05; everything downstream reuses those runs via the shared
cache directory.

The sharded tests replay the same cache through a ``jobs=2`` store
(DESIGN.md §11): the map/reduce lifetime folds must hold the same
byte-identity bar the serial folds do.
"""

from __future__ import annotations

import pytest

from repro.analysis import report
from repro.analysis.experiments import TraceStore
from repro.analysis.tables import table4, table7, table8
from repro.analysis.trace_cache import TraceCache
from repro.core.database import save_predictor
from repro.obs.metrics import Metrics
from repro.runtime.stream import TraceEventSource, TraceFileSource
from repro.runtime.tracefile import convert_trace, save_trace
from repro.workloads.registry import PROGRAM_ORDER

SCALE = 0.05


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """(run store, file store) over one shared cache.

    The run store executes the workloads and replays their in-memory
    traces.  The file store's cache entries are produced by the v2 -> v3
    converter rather than written natively, so this fixture exercises the
    whole upgrade path: trace -> v2 file -> convert -> v3 file -> store.
    """
    root = tmp_path_factory.mktemp("stream-parity")
    cache_dir = root / "cache"
    materialized = TraceStore(scale=SCALE, cache_dir=cache_dir)
    cache = TraceCache(cache_dir, metrics=Metrics())
    for program, dataset in materialized.warm_pairs():
        trace = materialized.trace(program, dataset)
        legacy = root / f"{program}-{dataset}.json.gz"
        save_trace(trace, legacy)  # suffix selects the v2 writer
        entry = cache.entry_path(program, dataset, SCALE)
        entry.parent.mkdir(parents=True, exist_ok=True)
        assert convert_trace(legacy, entry, version=3) == 3
    streaming = TraceStore(scale=SCALE, cache_dir=cache_dir)
    return materialized, streaming


@pytest.fixture(scope="module")
def sharded_store(stores):
    """A jobs=2 store over the same converted v3 cache."""
    _, streaming = stores
    return TraceStore(
        scale=SCALE,
        cache_dir=streaming.cache.directory,
        jobs=2,
    )


def test_streaming_store_replays_files_not_memory(stores):
    materialized, streaming = stores
    assert isinstance(materialized.source("gawk"), TraceEventSource)
    fresh = TraceStore(scale=SCALE, cache_dir=streaming.cache.directory)
    source = fresh.source("gawk")
    assert isinstance(source, TraceFileSource)
    assert list(source.events()) == list(
        materialized.source("gawk").events()
    )
    # The first pass streamed the file and built no Trace.
    assert source._memory is None


def test_tables_4_7_8_are_byte_identical(stores):
    materialized, streaming = stores
    renderers = (
        (table4, report.render_table4),
        (table7, report.render_table7),
        (table8, report.render_table8),
    )
    for build, render in renderers:
        assert render(build(streaming)) == render(build(materialized))


def test_predictor_databases_are_byte_identical(stores, tmp_path):
    materialized, streaming = stores
    for program in PROGRAM_ORDER:
        mat_path = tmp_path / f"{program}-materialized.db"
        str_path = tmp_path / f"{program}-streamed.db"
        save_predictor(materialized.predictor(program), mat_path)
        save_predictor(streaming.predictor(program), str_path)
        assert str_path.read_bytes() == mat_path.read_bytes(), program


def test_cce_predictors_agree(stores):
    materialized, streaming = stores
    for program in PROGRAM_ORDER:
        assert (
            streaming.cce_predictor(program).keys
            == materialized.cce_predictor(program).keys
        ), program


def test_sharded_store_hands_out_sharded_sources(stores, sharded_store):
    source = sharded_store.source("gawk")
    assert isinstance(source, TraceFileSource)
    assert source.shard_jobs == 2


def test_sharded_tables_4_7_8_are_byte_identical(stores, sharded_store):
    """The five-workload sharded parity gate (ISSUE 6 acceptance)."""
    materialized, _ = stores
    renderers = (
        (table4, report.render_table4),
        (table7, report.render_table7),
        (table8, report.render_table8),
    )
    for build, render in renderers:
        assert render(build(sharded_store)) == render(build(materialized))


def test_sharded_predictor_databases_are_byte_identical(
    stores, sharded_store, tmp_path
):
    materialized, _ = stores
    for program in PROGRAM_ORDER:
        mat_path = tmp_path / f"{program}-materialized.db"
        shard_path = tmp_path / f"{program}-sharded.db"
        save_predictor(materialized.predictor(program), mat_path)
        save_predictor(sharded_store.predictor(program), shard_path)
        assert shard_path.read_bytes() == mat_path.read_bytes(), program


def test_windows_and_drift_are_byte_identical_across_replay_modes(
    stores, sharded_store
):
    """The five-workload ``windows`` parity gate (ISSUE 8 acceptance).

    The windowed time-series document and the drift report derived from
    it — serialized exactly as their JSON exports write them — must be
    byte-identical whether the fold consumed the workload run's trace,
    the store's v3 file, or the jobs=2 sharded fold over that file.
    Window boundaries come from the trace header (bytes axis) so the
    partition is identical by construction; what this gate proves is
    that the per-window tallies and per-site scores survive
    out-of-order, merge-reduced delivery.
    """
    import json

    from repro.obs.drift import drift_report
    from repro.obs.windows import window_profile

    materialized, streaming = stores
    for program in PROGRAM_ORDER:
        predictor = materialized.predictor(program)
        docs = []
        for store in (materialized, streaming, sharded_store):
            profile = window_profile(
                store.source(program, "test"),
                windows=8,
                predictor=predictor,
            )
            docs.append(json.dumps(
                {
                    "windows": profile.to_dict(),
                    "drift": drift_report(profile),
                },
                indent=2,
                sort_keys=True,
            ))
        assert docs[0] == docs[1] == docs[2], program


def test_events_axis_windows_are_byte_identical(stores, sharded_store):
    """The events axis needs a prepass over the stream to place window
    boundaries, so it exercises re-iterability of every source kind; the
    resulting document must still be source-independent.  One workload
    suffices — the bytes-axis gate above covers all five.
    """
    import json

    from repro.obs.windows import window_profile

    materialized, streaming = stores
    docs = [
        json.dumps(
            window_profile(
                store.source("gawk", "test"), windows=8, by="events"
            ).to_dict(),
            indent=2,
            sort_keys=True,
        )
        for store in (materialized, streaming, sharded_store)
    ]
    assert docs[0] == docs[1] == docs[2]


def test_attribution_is_byte_identical_across_replay_modes(
    stores, sharded_store
):
    """The five-workload ``profile-sites`` parity gate (ISSUE 7).

    The attribution document — serialized exactly as the JSON export
    writes it — must be byte-identical whether the fold consumed the
    workload run's trace, the store's v3 file, or the jobs=2 sharded
    fold over that file.  The predictor comes from the run store on all
    three paths so the only variable is the event pipeline.
    """
    import json

    from repro.obs.attrib import attribute_sites

    materialized, streaming = stores
    for program in PROGRAM_ORDER:
        predictor = materialized.predictor(program)
        docs = [
            json.dumps(
                attribute_sites(
                    store.source(program, "test"),
                    profile="arena",
                    predictor=predictor,
                ).to_dict(),
                indent=2,
                sort_keys=True,
            )
            for store in (materialized, streaming, sharded_store)
        ]
        assert docs[0] == docs[1] == docs[2], program

"""Damaged v3 traces fail with ``TraceFormatError``, on every path.

Two kinds of damage:

* an *orphan free* — a well-formed file whose event stream frees an
  object it never allocated.  Every pass that pairs frees with
  allocations (the serial lifetime iterators, live stats, the P^2
  profile, materialization, replay, the sharded engine) raises the same
  error, and the CLI turns it into one ``error:`` line and exit 1.  A
  second free of an object, a free of a negative id and an allocation
  out of id order are the same kind of damage to materialization;
* *byte damage* — truncations and byte flips.  The reader must reject
  them with ``TraceFormatError`` and nothing else, both through
  :class:`TraceFileSource` plus a full ``events()`` drain and through
  the worker-side :func:`read_chunk_events`.

``write_orphan_free_trace`` is also what the CI step "Damaged traces
fail cleanly" runs to make its input.
"""

from __future__ import annotations

import dataclasses
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alloc.spec import FIRSTFIT_SPEC
from repro.analysis.simulate import simulate_spec
from repro.core.profile import build_profile
from repro.core.predictor import train_site_predictor
from repro.runtime.shard import lifetime_census
from repro.runtime.stream.protocol import (
    EV_ALLOC,
    EV_FREE,
    EventSource,
    TraceEventSource,
    build_trace,
    iter_object_lifetimes,
    iter_object_records,
    stream_live_stats,
)
from repro.runtime.stream.v3 import (
    TraceFileSource,
    read_chunk_events,
    write_trace_v3,
)
from repro.runtime.tracefile import TraceFormatError, load_trace
from tests.conftest import make_churn_trace

ROOT = Path(__file__).resolve().parent.parent


class _Spliced(EventSource):
    """A trace's stream with one damaging event spliced in halfway.

    ``damage`` maps the events before the splice to the spliced event.
    """

    def __init__(self, trace, damage):
        self.inner = TraceEventSource(trace)
        self.damage = damage

    @property
    def header(self):
        return self.inner.header

    @property
    def summary(self):
        summary = self.inner.summary
        return dataclasses.replace(summary,
                                   event_count=summary.event_count + 1)

    def events(self):
        events = list(self.inner.events())
        half = len(events) // 2
        yield from events[:half]
        yield self.damage(events[:half])
        yield from events[half:]


class _WithOrphanFree(_Spliced):
    """A free of a never-allocated object spliced in halfway."""

    def __init__(self, trace):
        self.orphan = trace.total_objects + 7
        super().__init__(
            trace, lambda before: (EV_FREE, self.orphan, before[-1][-1], 0)
        )


def _first_free(events):
    """The first free event; spliced in again, it is a second free."""
    return next(ev for ev in events if ev[0] == EV_FREE)


def _negative_free(before):
    return (EV_FREE, -1, before[-1][-1], 0)


def _skipped_alloc(before):
    """An allocation that skips ahead of the dense object-id order."""
    next_id = sum(1 for ev in before if ev[0] == EV_ALLOC)
    return (EV_ALLOC, next_id + 3, 0, 16, before[-1][-1])


#: Spliced damage -> the message materialization must raise.
_MATERIALIZE_DAMAGE = {
    "second-free": (_first_free, "free of object {obj} with no allocation"),
    "negative-free": (_negative_free, "free of object -1 with no allocation"),
    "skipped-alloc": (_skipped_alloc, "alloc events out of order"),
}


def write_orphan_free_trace(path, objects=40, chunk_events=16):
    """Write a multi-chunk v3 trace whose stream frees an object it never
    allocated; returns that object's id."""
    source = _WithOrphanFree(make_churn_trace(objects=objects))
    write_trace_v3(source, path, chunk_events=chunk_events)
    return source.orphan


@pytest.fixture(scope="module")
def orphan(tmp_path_factory):
    path = tmp_path_factory.mktemp("orphan") / "orphan.rtr3"
    return path, write_orphan_free_trace(path)


def _message(orphan_id):
    return f"free of object {orphan_id} with no allocation"


class TestOrphanFree:
    def test_file_opens_cleanly(self, orphan):
        path, _ = orphan
        assert len(TraceFileSource(path).chunk_index) > 2

    @pytest.mark.parametrize("consume", [
        lambda source: list(iter_object_lifetimes(source)),
        lambda source: list(iter_object_records(source)),
        stream_live_stats,
        build_trace,
        build_profile,
        lambda source: simulate_spec(source, FIRSTFIT_SPEC),
        lambda source: lifetime_census(source, 4096),
        lambda source: train_site_predictor(source),
    ], ids=["lifetimes", "records", "live-stats", "build-trace", "profile",
            "replay", "census", "train"])
    def test_serial_paths_raise_trace_format_error(self, orphan, consume):
        path, orphan_id = orphan
        with pytest.raises(TraceFormatError, match=_message(orphan_id)) as err:
            consume(TraceFileSource(path))
        assert str(err.value).startswith(f"{path}: ")

    def test_materializing_load_raises(self, orphan):
        path, orphan_id = orphan
        with pytest.raises(TraceFormatError, match=_message(orphan_id)):
            load_trace(path)

    def test_in_memory_stream_names_the_execution(self, orphan):
        source = _WithOrphanFree(make_churn_trace(objects=40))
        with pytest.raises(TraceFormatError,
                           match=f"^synthetic/synthetic: "
                                 f"{_message(source.orphan)}$"):
            list(iter_object_lifetimes(source))

    def test_sharded_engine_raises_the_same_error(self, orphan):
        path, orphan_id = orphan
        with pytest.raises(TraceFormatError,
                           match=_message(orphan_id)
                           + " in any earlier shard"):
            lifetime_census(TraceFileSource(path, shard_jobs=2), 4096)

    @pytest.mark.parametrize("args", [
        ["sites"],
        ["profile", "-o", "{tmp}/out.sites"],
        ["simulate", "--allocator", "firstfit"],
    ], ids=["sites", "profile", "simulate-stream"])
    def test_cli_prints_one_error_line(self, orphan, tmp_path, args):
        path, orphan_id = orphan
        argv = [arg.format(tmp=tmp_path) for arg in args]
        done = subprocess.run(
            [sys.executable, "-m", "repro", argv[0], str(path), *argv[1:]],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ")
        assert _message(orphan_id) in done.stderr


@pytest.fixture(scope="module", params=sorted(_MATERIALIZE_DAMAGE))
def spliced(request, tmp_path_factory):
    """A v3 file whose stream carries one kind of materialization damage,
    and the message that damage must raise."""
    damage, message = _MATERIALIZE_DAMAGE[request.param]
    path = tmp_path_factory.mktemp(request.param) / "spliced.rtr3"
    source = _Spliced(make_churn_trace(objects=40), damage)
    write_trace_v3(source, path, chunk_events=16)
    freed = _first_free(source.inner.events())
    return path, message.format(obj=freed[1])


class TestMaterializeDamage:
    def test_load_trace_raises_trace_format_error(self, spliced):
        path, message = spliced
        with pytest.raises(TraceFormatError, match=message) as err:
            load_trace(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_cli_sites_prints_one_error_line(self, spliced):
        path, message = spliced
        done = subprocess.run(
            [sys.executable, "-m", "repro", "sites", str(path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ")
        assert len(done.stderr.splitlines()) == 1
        assert message in done.stderr


# ----------------------------------------------------------------------
# Byte damage
# ----------------------------------------------------------------------

_FRAME = struct.Struct("<cI")


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A small multi-chunk v3 file, its bytes, frame layout and contents."""
    path = tmp_path_factory.mktemp("fuzz") / "small.rtr3"
    write_trace_v3(TraceEventSource(make_churn_trace(objects=30)), path,
                   chunk_events=16)
    data = path.read_bytes()
    source = TraceFileSource(path)
    frames = []  # (start, end) of every frame, magic and trailer excluded
    offset = 8
    while offset < len(data) - 24:
        _, length = _FRAME.unpack_from(data, offset)
        frames.append((offset, offset + _FRAME.size + length))
        offset = frames[-1][1]
    assert len(source.chunk_index) >= 3
    chunks = [
        (offset, count, read_chunk_events(path, offset, count,
                                          source.data_end))
        for offset, count in source.chunk_index
    ]
    return {
        "data": data,
        "frames": frames,
        "chunks": chunks,
        "data_end": source.data_end,
        "contents": (source.header, source.summary, list(source.events())),
    }


def _drain(path):
    source = TraceFileSource(path)
    return source.header, source.summary, list(source.events())


def _damaged(tmp_path, data, name="damaged.rtr3"):
    path = tmp_path / name
    path.write_bytes(data)
    return path


class TestTruncation:
    def test_every_truncation_raises(self, small, tmp_path):
        data = small["data"]
        for cut in range(len(data)):
            path = _damaged(tmp_path, data[:cut])
            with pytest.raises(TraceFormatError):
                _drain(path)

    def test_chunk_reads_across_a_frame_boundary_cut(self, small,
                                                     tmp_path):
        """Cut at each frame boundary (and inside each frame): a chunk
        whose frame the cut spares reads back intact, any other raises."""
        data = small["data"]
        for start, end in small["frames"]:
            for cut in (start, start + 1, start + _FRAME.size, end - 1):
                path = _damaged(tmp_path, data[:cut])
                for offset, count, events in small["chunks"]:
                    if cut >= _chunk_end(small, offset):
                        assert read_chunk_events(
                            path, offset, count, small["data_end"]
                        ) == events
                    else:
                        with pytest.raises(TraceFormatError):
                            read_chunk_events(path, offset, count,
                                              small["data_end"])


def _chunk_end(small, offset):
    return next(end for start, end in small["frames"] if start == offset)


class TestByteFlips:
    def test_every_inverted_byte_raises(self, small, tmp_path):
        """The classic byte flip, ``b ^ 0xFF``, at every offset: the open
        plus a full drain raises, and so does reading the flipped chunk."""
        data = small["data"]
        for position in range(len(data)):
            damaged = bytearray(data)
            damaged[position] ^= 0xFF
            path = _damaged(tmp_path, bytes(damaged))
            with pytest.raises(TraceFormatError):
                _drain(path)
            for offset, count, events in small["chunks"]:
                if offset <= position < _chunk_end(small, offset):
                    with pytest.raises(TraceFormatError):
                        read_chunk_events(path, offset, count,
                                          small["data_end"])

    def test_every_bit_of_each_final_deflate_byte(self, small, tmp_path):
        """The byte before each frame's gzip trailer ends the deflate
        stream; its high bits are zero padding a plain inflater never
        reads.  Flipping any one of its bits must still raise."""
        data = small["data"]
        for _, end in small["frames"]:
            position = end - 9  # 8-byte gzip trailer
            for bit in range(8):
                damaged = bytearray(data)
                damaged[position] ^= 1 << bit
                path = _damaged(tmp_path, bytes(damaged))
                with pytest.raises(TraceFormatError):
                    _drain(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_random_byte_replacement(self, small, tmp_path, data):
        """Any replacement byte anywhere raises ``TraceFormatError`` and
        nothing else, unless the damaged file decodes to exactly the
        original contents: deflate has equivalent encodings, so a rare
        change inside a compressed block inflates to the same bytes (its
        CRC-32 and length match), which no reader can tell apart."""
        original = small["data"]
        position = data.draw(st.integers(0, len(original) - 1))
        value = data.draw(st.integers(0, 255).filter(
            lambda v: v != original[position]))
        damaged = bytearray(original)
        damaged[position] = value
        path = _damaged(tmp_path, bytes(damaged))
        try:
            contents = _drain(path)
        except TraceFormatError:
            pass
        else:
            assert contents == small["contents"], (position, value)
        for offset, count, events in small["chunks"]:
            try:
                read = read_chunk_events(path, offset, count,
                                         small["data_end"])
            except TraceFormatError:
                continue
            assert read == events, (position, value, offset)

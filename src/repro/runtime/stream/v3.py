"""Trace format v3: chunked, length-prefixed gzip frames + footer index.

Layout (all integers little-endian)::

    offset 0   magic            b"RPRTRC3\\n"                     8 bytes
               H frame          gzip JSON header (identity, chain
                                table, has_touch_events)
               E frame ...      gzip JSON event chunks, ~64k events
                                each, in program order
               F frame          gzip JSON footer (aggregate counters,
                                unfreed touch counts, chunk index)
    trailer    b"RPRTRIDX" + u64 footer offset + magic            24 bytes

    frame   =  1-byte kind (H/E/F) + u32 payload length + gzip payload

The fixed-size trailer makes the footer reachable with one backward
seek, so a reader exposes the :class:`~repro.runtime.stream.protocol.
StreamSummary` *at open time* without touching the event frames; events
then stream one chunk at a time, giving O(live objects + one chunk)
replay memory.  The chunk index in the footer records every E frame's
offset and event count for future sharded/partial readers.

Writes go through :func:`repro.runtime.tracefile.atomic_output` — the
same temp-file + ``os.replace`` path as the v2 writer — and gzip with
``mtime=0``, so a given stream always produces byte-identical files and
an interrupted write never publishes a partial one.  Reads validate the
magic, the trailer, every frame boundary, every frame's gzip member
(header, padding, CRC and length; see :func:`_gunzip`), and the final
event count against the footer: a truncated or corrupt mid-stream chunk
raises :class:`~repro.runtime.tracefile.TraceFormatError`, never a
silently short trace.
"""

from __future__ import annotations

import gzip
import json
import os
import struct
import zlib
from typing import BinaryIO, Iterator, Tuple

from repro.core.sites import ChainTable
from repro.runtime.stream.protocol import (
    EV_ALLOC,
    EV_FREE,
    EV_TOUCH,
    Event,
    EventSource,
    StreamHeader,
    StreamSummary,
)
from repro.runtime import tracefile

__all__ = [
    "DEFAULT_CHUNK_EVENTS",
    "TraceFileSource",
    "read_chunk_events",
    "write_trace_v3",
]

#: Events per E frame.  Large enough that gzip compresses well and the
#: per-frame overhead vanishes, small enough that one decoded chunk is
#: a few megabytes at most.
DEFAULT_CHUNK_EVENTS = 65536

_TRAILER_MAGIC = b"RPRTRIDX"
#: kind byte + u32 payload length.
_FRAME = struct.Struct("<cI")
#: trailer magic + u64 footer offset + file magic.
_TRAILER = struct.Struct("<8sQ8s")

_KIND_HEADER = b"H"
_KIND_EVENTS = b"E"
_KIND_FOOTER = b"F"

#: Expected tuple length per event tag (frame validation).
_EVENT_LENGTHS = {EV_ALLOC: 5, EV_FREE: 4, EV_TOUCH: 3}

#: The fixed start of every frame's gzip member: magic, deflate, no
#: flags, mtime 0.  The two bytes after it (XFL from the compression
#: level, OS from the zlib build) vary by writer, so a file's frames
#: must instead all agree with each other.
_GZIP_FIXED = b"\x1f\x8b\x08\x00\x00\x00\x00\x00"
_GZIP_HEADER_SIZE = 10
#: gzip trailer: CRC-32 and length (mod 2**32) of the inflated data.
_GZIP_TRAILER = struct.Struct("<II")
#: Offset of the header frame's gzip header (after magic + frame head).
_FIRST_GZIP_HEADER = len(tracefile.V3_MAGIC) + _FRAME.size


def _pack_frame(kind: bytes, doc: dict) -> bytes:
    data = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    # mtime=0 keeps the bytes deterministic for a given stream.
    payload = gzip.compress(data, compresslevel=9, mtime=0)
    return _FRAME.pack(kind, len(payload)) + payload


def write_trace_v3(
    source: EventSource,
    path: "tracefile.PathLike",
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> None:
    """Write ``source``'s stream to ``path`` in v3 format (atomically).

    Consumes the events exactly once; peak memory is one chunk's worth
    of event tuples, so a disk-to-disk conversion never materializes the
    trace.
    """
    if chunk_events < 1:
        raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
    header = source.header
    header_doc = {
        "format": "repro-trace-stream",
        "version": 3,
        "program": header.program,
        "dataset": header.dataset,
        "has_touch_events": header.has_touch_events,
        "chains": [list(chain) for chain in header.chains.to_list()],
    }
    with tracefile.atomic_output(path) as fh:
        fh.write(tracefile.V3_MAGIC)
        offset = len(tracefile.V3_MAGIC)
        offset += fh.write(_pack_frame(_KIND_HEADER, header_doc))
        chunks = []
        event_count = 0
        buffer = []
        for ev in source.events():
            buffer.append(list(ev))
            if len(buffer) >= chunk_events:
                chunks.append([offset, len(buffer)])
                event_count += len(buffer)
                offset += fh.write(
                    _pack_frame(_KIND_EVENTS, {"events": buffer})
                )
                buffer = []
        if buffer:
            chunks.append([offset, len(buffer)])
            event_count += len(buffer)
            offset += fh.write(_pack_frame(_KIND_EVENTS, {"events": buffer}))
        summary = source.summary
        if summary.event_count != event_count:
            raise ValueError(
                f"source summary declares {summary.event_count} events "
                f"but {event_count} were streamed"
            )
        footer_doc = {
            "total_calls": summary.total_calls,
            "heap_refs": summary.heap_refs,
            "non_heap_refs": summary.non_heap_refs,
            "end_time": summary.end_time,
            "total_objects": summary.total_objects,
            "event_count": event_count,
            "unfreed_touches": [list(pair) for pair in summary.unfreed_touches],
            "chunks": chunks,
        }
        fh.write(_pack_frame(_KIND_FOOTER, footer_doc))
        fh.write(_TRAILER.pack(_TRAILER_MAGIC, offset, tracefile.V3_MAGIC))


class TraceFileSource(EventSource):
    """Streaming reader over a v3 trace file.

    Opening reads only the header and footer frames (via the trailer),
    then closes the file; every :meth:`events` call opens its own
    handle, so one source supports repeated and concurrent replays.
    The source fixes the file's identity at open time, so it also
    carries the file's lifetime census memo (one pass per threshold).
    """

    def __init__(self, path: "tracefile.PathLike"):
        self.path = os.fspath(path)
        with open(self.path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            floor = len(tracefile.V3_MAGIC) + _TRAILER.size
            if size < floor:
                raise tracefile.TraceFormatError(
                    f"{self.path}: truncated v3 trace ({size} bytes)"
                )
            fh.seek(0)
            if fh.read(len(tracefile.V3_MAGIC)) != tracefile.V3_MAGIC:
                raise tracefile.TraceFormatError(
                    f"{self.path}: not a v3 trace file (bad magic)"
                )
            fh.seek(size - _TRAILER.size)
            trailer_magic, footer_offset, end_magic = _TRAILER.unpack(
                fh.read(_TRAILER.size)
            )
            if (trailer_magic != _TRAILER_MAGIC
                    or end_magic != tracefile.V3_MAGIC):
                raise tracefile.TraceFormatError(
                    f"{self.path}: truncated v3 trace (bad trailer)"
                )
            if not len(tracefile.V3_MAGIC) <= footer_offset <= size - floor:
                raise tracefile.TraceFormatError(
                    f"{self.path}: footer offset {footer_offset} outside file"
                )
            self._data_end = footer_offset
            fh.seek(_FIRST_GZIP_HEADER)
            self._gzip_header = _read_gzip_header(fh, self.path)
            fh.seek(footer_offset)
            kind, footer_doc = _read_frame(
                fh, self.path, size - _TRAILER.size, self._gzip_header
            )
            if kind != _KIND_FOOTER:
                raise tracefile.TraceFormatError(
                    f"{self.path}: expected footer frame at {footer_offset}, "
                    f"got kind {kind!r}"
                )
            fh.seek(len(tracefile.V3_MAGIC))
            kind, header_doc = _read_frame(
                fh, self.path, footer_offset, self._gzip_header
            )
            if kind != _KIND_HEADER:
                raise tracefile.TraceFormatError(
                    f"{self.path}: expected header frame, got kind {kind!r}"
                )
            self._first_event_offset = fh.tell()
        try:
            chains = ChainTable.from_list(
                [tuple(chain) for chain in header_doc["chains"]]
            )
            self._header = StreamHeader(
                program=header_doc["program"],
                dataset=header_doc["dataset"],
                chains=chains,
                has_touch_events=bool(header_doc["has_touch_events"]),
            )
            self._summary = StreamSummary(
                total_calls=footer_doc["total_calls"],
                heap_refs=footer_doc["heap_refs"],
                non_heap_refs=footer_doc["non_heap_refs"],
                end_time=footer_doc["end_time"],
                total_objects=footer_doc["total_objects"],
                event_count=footer_doc["event_count"],
                unfreed_touches=tuple(
                    (int(obj_id), int(count))
                    for obj_id, count in footer_doc["unfreed_touches"]
                ),
            )
            self.chunk_index: Tuple[Tuple[int, int], ...] = tuple(
                (int(off), int(count)) for off, count in footer_doc["chunks"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise tracefile.TraceFormatError(
                f"{self.path}: malformed v3 header/footer: {exc}"
            ) from exc

    @property
    def header(self) -> StreamHeader:
        return self._header

    @property
    def summary(self) -> StreamSummary:
        return self._summary

    @property
    def data_end(self) -> int:
        """First offset past the event region (the footer frame offset).

        Together with :attr:`chunk_index` this is everything a sharded
        reader needs to hand a worker one chunk: the index supplies the
        frame offset and expected event count, ``data_end`` bounds the
        frame so a corrupt length field cannot read into the footer.
        """
        return self._data_end

    def events(self) -> Iterator[Event]:
        yielded = 0
        with open(self.path, "rb") as fh:
            fh.seek(self._first_event_offset)
            while fh.tell() < self._data_end:
                kind, doc = _read_frame(
                    fh, self.path, self._data_end, self._gzip_header
                )
                if kind != _KIND_EVENTS:
                    raise tracefile.TraceFormatError(
                        f"{self.path}: unexpected {kind!r} frame in the "
                        f"event region"
                    )
                events = doc.get("events")
                if not isinstance(events, list):
                    raise tracefile.TraceFormatError(
                        f"{self.path}: event chunk without an event list"
                    )
                for ev in events:
                    if (not isinstance(ev, list) or not ev
                            or _EVENT_LENGTHS.get(ev[0]) != len(ev)):
                        raise tracefile.TraceFormatError(
                            f"{self.path}: malformed event {ev!r}"
                        )
                    yield tuple(ev)
                yielded += len(events)
        if yielded != self._summary.event_count:
            raise tracefile.TraceFormatError(
                f"{self.path}: event stream ended after {yielded} events, "
                f"footer declares {self._summary.event_count}"
            )


def read_chunk_events(
    path: "tracefile.PathLike", offset: int, count: int, data_end: int
) -> Tuple[Event, ...]:
    """Decode one E frame named by a footer chunk-index entry.

    ``offset`` and ``count`` come straight from a
    :attr:`TraceFileSource.chunk_index` entry and ``data_end`` from
    :attr:`TraceFileSource.data_end`; validation matches the serial
    reader's (frame kind, gzip member checked against the header
    frame's, per-event tuple shapes) plus the index's own declared event
    count, so a corrupted index entry raises
    :class:`~repro.runtime.tracefile.TraceFormatError` instead of
    silently mis-partitioning a sharded replay.  This is the worker-side
    primitive of :mod:`repro.runtime.shard`: it needs no state beyond
    the four integers/strings, so process-pool workers can decode
    chunks independently.
    """
    name = os.fspath(path)
    with open(name, "rb") as fh:
        fh.seek(_FIRST_GZIP_HEADER)
        gzip_header = _read_gzip_header(fh, name)
        fh.seek(offset)
        kind, doc = _read_frame(fh, name, data_end, gzip_header)
    if kind != _KIND_EVENTS:
        raise tracefile.TraceFormatError(
            f"{name}: chunk index points at a {kind!r} frame at "
            f"offset {offset}, expected an event frame"
        )
    events = doc.get("events")
    if not isinstance(events, list):
        raise tracefile.TraceFormatError(
            f"{name}: event chunk without an event list"
        )
    if len(events) != count:
        raise tracefile.TraceFormatError(
            f"{name}: chunk at offset {offset} holds {len(events)} "
            f"events, index declares {count}"
        )
    out = []
    for ev in events:
        if (not isinstance(ev, list) or not ev
                or _EVENT_LENGTHS.get(ev[0]) != len(ev)):
            raise tracefile.TraceFormatError(
                f"{name}: malformed event {ev!r}"
            )
        out.append(tuple(ev))
    return tuple(out)


def _read_gzip_header(fh: BinaryIO, path: str) -> bytes:
    """The file's gzip member header, read at the current offset.

    Every frame of one file carries the same one (see
    :func:`_gunzip`), so this is read once, from the header frame, and
    each frame is checked against it.
    """
    header = fh.read(_GZIP_HEADER_SIZE)
    if len(header) != _GZIP_HEADER_SIZE or not header.startswith(_GZIP_FIXED):
        raise tracefile.TraceFormatError(
            f"{path}: corrupt frame payload: not a gzip member "
            f"written by this format"
        )
    return header


def _gunzip(payload: bytes, path: str, gzip_header: bytes) -> bytes:
    """Inflate one frame payload, accepting only what the writer emits.

    :func:`gzip.decompress` forgives what damage looks like: header
    fields it never checks (flags, mtime, XFL, OS), trailing NULs,
    concatenated members, and stray bits after the final deflate block.
    Any of those would let a damaged file decode silently.  Here the
    payload must be exactly one member whose header equals the file's
    ``gzip_header``, whose deflate stream ends right at the trailer with
    zero padding bits, and whose CRC-32 and length match.
    """
    size = len(payload)
    if (size < _GZIP_HEADER_SIZE + 1 + _GZIP_TRAILER.size
            or payload[:_GZIP_HEADER_SIZE] != gzip_header):
        raise tracefile.TraceFormatError(
            f"{path}: corrupt frame payload: gzip header differs from "
            f"the file's"
        )
    body = memoryview(payload)[_GZIP_HEADER_SIZE:size - _GZIP_TRAILER.size]
    inflater = zlib.decompressobj(-zlib.MAX_WBITS)
    try:
        data = inflater.decompress(body[:-1])
        before_last = inflater.copy()
        tail = inflater.decompress(body[-1:])
    except zlib.error as exc:
        raise tracefile.TraceFormatError(
            f"{path}: corrupt frame payload: {exc}"
        ) from exc
    if not inflater.eof or inflater.unused_data:
        raise tracefile.TraceFormatError(
            f"{path}: corrupt frame payload: deflate stream does not end "
            f"at the gzip trailer"
        )
    data += tail
    crc, length = _GZIP_TRAILER.unpack(payload[size - _GZIP_TRAILER.size:])
    if crc != zlib.crc32(data) or length != len(data) & 0xFFFFFFFF:
        raise tracefile.TraceFormatError(
            f"{path}: corrupt frame payload: CRC or length mismatch"
        )
    # The final block ends inside the last byte; zlib pads the rest with
    # zero bits.  The fewest low bits that still end the stream with the
    # same output are the used ones, and every bit above them must be
    # zero.
    last = body[-1]
    for used in range(1, 8):
        if not last >> used:
            break
        trial = before_last.copy()
        try:
            ending = trial.decompress(bytes((last & ((1 << used) - 1),)))
        except zlib.error:
            continue
        if trial.eof and ending == tail:
            raise tracefile.TraceFormatError(
                f"{path}: corrupt frame payload: nonzero padding after "
                f"the final deflate block"
            )
    return data


def _read_frame(
    fh: BinaryIO, path: str, limit: int, gzip_header: bytes
) -> Tuple[bytes, dict]:
    """Read one frame; every failure mode is a :class:`TraceFormatError`.

    ``limit`` is the first offset past the region this frame must fit in
    (the footer offset for event frames), so a corrupted length field
    cannot silently read into the footer or past EOF; ``gzip_header`` is
    the file's (see :func:`_gunzip`).
    """
    raw = fh.read(_FRAME.size)
    if len(raw) != _FRAME.size:
        raise tracefile.TraceFormatError(
            f"{path}: truncated frame header at offset "
            f"{fh.tell() - len(raw)}"
        )
    kind, length = _FRAME.unpack(raw)
    if fh.tell() + length > limit:
        raise tracefile.TraceFormatError(
            f"{path}: frame of {length} bytes at offset {fh.tell()} "
            f"overruns its region (ends past {limit})"
        )
    payload = fh.read(length)
    if len(payload) != length:
        raise tracefile.TraceFormatError(
            f"{path}: truncated frame payload "
            f"({len(payload)} of {length} bytes)"
        )
    data = _gunzip(payload, path, gzip_header)
    try:
        doc = json.loads(data)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise tracefile.TraceFormatError(
            f"{path}: frame is not valid JSON: {exc}"
        ) from exc
    if not isinstance(doc, dict):
        raise tracefile.TraceFormatError(
            f"{path}: frame document is not an object"
        )
    return kind, doc

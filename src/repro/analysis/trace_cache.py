"""Persistent, cross-process trace cache.

Running a workload is the dominant cost of every experiment, and every
pytest worker, benchmark session, and CLI invocation needs the same
``(program, dataset)`` executions.  This module stores finished traces on
disk in the versioned :mod:`repro.runtime.tracefile` format so a second
process loads a gzipped trace in milliseconds instead of re-running the
workload.

Cache layout — one chunked v3 trace file per execution under a single
directory (default ``~/.cache/repro-alloc``, overridable with the
``REPRO_CACHE_DIR`` environment variable)::

    <program>-<dataset>-scale<scale>-v<FORMAT_VERSION>-<srchash>.rtr3

:meth:`TraceCache.open_stream` opens an entry as an
:class:`ExecutionSource`, which streams its first replay in O(live
objects + one chunk) memory and decodes the file into an in-memory
:class:`~repro.runtime.events.Trace` once a second begins.  The key
bakes in everything that could change the trace:

* ``program``, ``dataset``, ``scale`` — the execution's identity;
* ``FORMAT_VERSION`` — the tracefile format, so format upgrades never
  read stale bytes;
* ``srchash`` — a SHA-256 digest over the :mod:`repro.workloads` package
  source (plus the traced runtime), so editing any workload invalidates
  its cached traces automatically.

Corrupt or truncated entries (an interrupted writer, a damaged disk) are
deleted.  Damage found at open (or by a verifying open) is a miss: the
workload re-runs and the entry is rewritten.  Damage inside an event
frame, found by a replay, fails that command; the entry is gone, so the
next command re-runs the workload.
Writers are crash- and race-safe because :func:`~repro.runtime.tracefile.
save_trace` publishes atomically via ``os.replace``.
"""

from __future__ import annotations

import hashlib
import os
from collections import deque
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.obs.metrics import METRICS, Metrics
from repro.obs.spans import TRACER
from repro.runtime import tracefile
from repro.runtime.events import Trace
from repro.runtime.stream.protocol import Event, TraceEventSource
from repro.runtime.stream.v3 import TraceFileSource
from repro.runtime.tracefile import (
    PathLike,
    TraceFormatError,
    load_trace,
    save_trace,
)

__all__ = [
    "ExecutionSource",
    "TraceCache",
    "default_cache_dir",
    "workloads_source_hash",
    "cache_disabled_by_env",
]

#: Environment variable naming the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Environment variable that disables the cache entirely when set to a
#: non-empty value ("0" also counts as set; any value disables).
NO_CACHE_ENV = "REPRO_NO_CACHE"


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-alloc``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-alloc"


def cache_disabled_by_env() -> bool:
    """Whether ``REPRO_NO_CACHE`` turns the cache off for this process."""
    return bool(os.environ.get(NO_CACHE_ENV))


_SOURCE_HASH_CACHE: Optional[str] = None


def workloads_source_hash() -> str:
    """A short digest of the workload package and traced-runtime source.

    Editing any workload (or the heap/event layer that defines what a
    trace contains) changes the digest, so stale cached traces can never
    be served after a code change.  Computed once per process.
    """
    global _SOURCE_HASH_CACHE
    if _SOURCE_HASH_CACHE is None:
        import repro.runtime as runtime_pkg
        import repro.workloads as workloads_pkg

        digest = hashlib.sha256()
        for pkg in (workloads_pkg, runtime_pkg):
            root = Path(pkg.__file__).resolve().parent
            for path in sorted(root.rglob("*.py")):
                digest.update(path.relative_to(root).as_posix().encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
                digest.update(b"\0")
        _SOURCE_HASH_CACHE = digest.hexdigest()[:12]
    return _SOURCE_HASH_CACHE


class TraceCache:
    """Disk-backed store of workload traces, shared across processes.

    :meth:`open_stream` returns ``None`` on any miss — absent entry,
    wrong version, or a corrupt/truncated file — so callers follow one
    code path: open, or run-and-store.  Hit/miss counts go to
    ``metrics`` (the process-wide :data:`~repro.obs.metrics.METRICS` by
    default) under ``trace_cache.hit`` / ``trace_cache.miss`` /
    ``trace_cache.store``, and every deleted damaged entry under
    ``trace_cache.corrupt``.
    """

    def __init__(
        self,
        directory: Union[str, os.PathLike, None] = None,
        metrics: Optional[Metrics] = None,
    ):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.metrics = metrics if metrics is not None else METRICS

    def entry_path(self, program: str, dataset: str, scale: float) -> Path:
        """Where the trace for one execution lives (whether or not present)."""
        name = (
            f"{program}-{dataset}-scale{float(scale)}"
            f"-v{tracefile.FORMAT_VERSION}-{workloads_source_hash()}.rtr3"
        )
        return self.directory / name

    def open_stream(
        self,
        program: str,
        dataset: str,
        scale: float,
        shard_jobs: int = 1,
        verify: bool = False,
    ) -> Optional["ExecutionSource"]:
        """The entry as an :class:`ExecutionSource`, or ``None`` on a miss.

        Opening reads only the file's header, footer and trailer.
        ``verify=True`` also reads every event frame once (CRC-checked,
        no event kept), so damage anywhere in the file is a miss here
        rather than an error in a later replay.  A damaged entry is
        deleted so the next :meth:`store` rewrites it cleanly; damage
        that a replay finds later drops the entry the same way (see
        :meth:`ExecutionSource.damaged`).
        """
        path = self.entry_path(program, dataset, scale)
        try:
            with TRACER.span("trace_cache.open_stream", cat="cache",
                             program=program, dataset=dataset), \
                    self.metrics.stage("trace_cache.open_stream"):
                source = ExecutionSource(path, shard_jobs, cache=self)
                if verify:
                    deque(TraceFileSource.events(source), maxlen=0)
        except FileNotFoundError:
            self.metrics.incr("trace_cache.miss")
            return None
        except (TraceFormatError, OSError):
            # Interrupted writer or damaged file: drop it and re-run.
            self.metrics.incr("trace_cache.miss")
            self.discard(path)
            return None
        self.metrics.incr("trace_cache.hit")
        return source

    def discard(self, path: Path) -> None:
        """Delete a damaged entry and count it under ``trace_cache.corrupt``.

        Counts only the deletion that removed the file, so an entry
        found damaged by two readers counts once.
        """
        try:
            path.unlink()
        except OSError:
            return
        self.metrics.incr("trace_cache.corrupt")

    def store(self, trace: Trace, scale: float) -> Path:
        """Write ``trace`` to its cache entry (atomic) and return the path."""
        path = self.entry_path(trace.program, trace.dataset, scale)
        self.directory.mkdir(parents=True, exist_ok=True)
        with TRACER.span("trace_cache.store", cat="cache",
                         program=trace.program, dataset=trace.dataset), \
                self.metrics.stage("trace_cache.store"):
            save_trace(trace, path)
        self.metrics.incr("trace_cache.store")
        return path

    def clear(self) -> int:
        """Delete every cache entry; returns how many files were removed."""
        removed = 0
        if self.directory.is_dir():
            # Both the current v3 suffix and the pre-v3 ``.json.gz``
            # entries older caches may still hold.
            for pattern in ("*.rtr3", "*.json.gz"):
                for path in self.directory.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed

    def __repr__(self) -> str:
        return f"<TraceCache dir={str(self.directory)!r}>"


class ExecutionSource(TraceFileSource):
    """One cached execution: streamed once, then replayed from memory.

    The first :meth:`events` pass streams the v3 file in O(live objects
    + one chunk) memory.  When a second pass begins, the file is decoded
    once into :attr:`trace` and that pass, and every later one, replays
    the in-memory copy.  One or two passes (``table 4``,
    ``profile-sites``) never hold a whole trace; many passes (``table
    all``, a search's candidate replays) decode once instead of once per
    pass.  Lifetime folds shard over the file whenever ``shard_jobs >
    1`` and never count as a pass, and the census memo moves to the
    decoded trace, so nothing is folded twice across the switch.

    Any read that finds the file damaged — the streamed pass, the
    decode, a sharded fold — deletes the entry from ``cache`` before
    its :class:`~repro.runtime.tracefile.TraceFormatError` propagates,
    so the command fails once and the next one re-runs the workload.
    """

    def __init__(
        self,
        path: PathLike,
        shard_jobs: int = 1,
        cache: Optional[TraceCache] = None,
    ):
        super().__init__(path, shard_jobs=shard_jobs)
        self._cache = cache
        self._streamed = False
        self._memory: Optional[TraceEventSource] = None

    @property
    def trace(self) -> Trace:
        """The execution decoded into memory (decoded on first use)."""
        return self._decoded().trace

    def events(self) -> Iterator[Event]:
        if self._memory is None and not self._streamed:
            self._streamed = True
            return super().events()
        return self._decoded().events()

    def damaged(self) -> None:
        if self._cache is not None:
            self._cache.discard(Path(self.path))

    def _decoded(self) -> TraceEventSource:
        if self._memory is None:
            metrics = self._cache.metrics if self._cache else METRICS
            header = self.header
            try:
                with TRACER.span("trace_cache.load", cat="cache",
                                 program=header.program,
                                 dataset=header.dataset), \
                        metrics.stage("trace_cache.load"):
                    trace = load_trace(self.path)
            except TraceFormatError:
                self.damaged()
                raise
            if self._census is None:
                self._census = {}
            trace._census = self._census
            self._memory = TraceEventSource(trace)
        return self._memory

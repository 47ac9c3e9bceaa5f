"""Shared argparse plumbing for the repro-alloc command families.

Every store-backed subcommand composes the same option groups; keeping
them here (and only here) is what makes ``--scale``/``--cache-dir``/
``--no-cache``/``--jobs`` spell and behave identically across the CLI.
``--jobs`` is validated at parse time by :func:`jobs_count`, so every
subcommand rejects a non-integer or non-positive worker count with the
same usage error before any work starts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import TraceStore
from repro.obs import DEFAULT_SAMPLE_INTERVAL
from repro.workloads.registry import PROGRAM_ORDER

__all__ = [
    "jobs_count",
    "_add_store_options",
    "_add_predictor_option",
    "_add_telemetry_options",
    "_make_store",
    "_write_report",
]


def jobs_count(value: str) -> int:
    """argparse ``type=`` for every ``--jobs`` flag: an integer >= 1.

    Raising :class:`argparse.ArgumentTypeError` here turns a bad worker
    count into the standard usage error (exit 2) uniformly, instead of
    each handler inventing its own check downstream.
    """
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {value!r}"
        )
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _add_store_options(
    sub: argparse.ArgumentParser, jobs: bool = False
) -> None:
    """The trace-store flags every store-backed subcommand shares.

    Commands that fan work out across processes or shard a lifetime fold
    (``warm``, ``table``, ``profile-sites``, ``windows``,
    ``escape-eval``, ``search run``) also take ``--jobs``; the output
    never depends on it.  ``stats``/``timeline`` replay a single
    execution in order and only need the scale and cache knobs.
    """
    sub.add_argument("--scale", type=float, default=1.0,
                     help="workload scale factor (default 1.0)")
    sub.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="trace cache directory (default $REPRO_CACHE_DIR "
                          "or ~/.cache/repro-alloc)")
    sub.add_argument("--no-cache", action="store_true",
                     help="bypass the persistent trace cache")
    if jobs:
        sub.add_argument("--jobs", type=jobs_count, default=1, metavar="N",
                         help="worker processes (default 1: serial); "
                              "output stays byte-identical")


def _add_predictor_option(sub: argparse.ArgumentParser) -> None:
    """The ``--predictor`` mode flag of store-backed arena consumers.

    ``trained`` (the default) profiles the ``train`` execution;
    ``static`` swaps in the profile-free escape-analysis predictor —
    same key space, no profiling run.
    """
    sub.add_argument("--predictor", choices=["trained", "static"],
                     default="trained",
                     help="arena predictor source (default trained: "
                          "profile the train execution; static: the "
                          "escape-analysis predictor, no profiling run)")


def _add_telemetry_options(sub: argparse.ArgumentParser) -> None:
    """The replay-selection flags shared by ``stats`` and ``timeline``."""
    sub.add_argument("--program", required=True, choices=PROGRAM_ORDER,
                     help="workload to replay")
    sub.add_argument("--dataset", default="test",
                     help="dataset to replay (default test)")
    sub.add_argument("--allocator", default="arena",
                     choices=["arena", "firstfit", "bsd"])
    sub.add_argument("--sites", default=None,
                     help="site database for the arena allocator (default: "
                          "train on the program's train dataset)")
    sub.add_argument("--interval", type=int,
                     default=DEFAULT_SAMPLE_INTERVAL,
                     help="sample interval in allocations "
                          f"(default {DEFAULT_SAMPLE_INTERVAL})")
    _add_store_options(sub)


def _make_store(args: argparse.Namespace) -> TraceStore:
    return TraceStore(
        scale=args.scale,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        jobs=getattr(args, "jobs", 1),
        predictor_mode=getattr(args, "predictor", "trained"),
    )


def _write_report(path: str, text: str, label: str) -> None:
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    print(f"{label}: {out}", file=sys.stderr)

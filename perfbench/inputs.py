"""Seeded inputs for the five traced programs, and their capture.

The benchmark never runs a workload's stock ``run()``: that would feed it
the fixed inputs behind the repository's tables.  Instead the benchmark
seed derives one generator seed per (program, dataset), builds the input
at the stock shape (cfrac's 10-digit semiprimes, espresso's 9/10-input
PLAs, gawk's and perl's dictionary lines, ghost's two document kinds)
through the public generators in :mod:`repro.workloads.inputs` and
:mod:`repro.workloads.ghost.docs`, and hands it to the workload's public
entry point on a fresh :class:`~repro.runtime.heap.TracedHeap`.

Every input is the stock input's size times one ``SCALE``, rounded and
floored exactly as each workload's ``run(dataset, scale)`` does, so the
ten executions keep the same shares of work that
``repro-alloc table all --scale SCALE`` gives them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.runtime.events import Trace
from repro.runtime.heap import TracedHeap
from repro.workloads.cfrac.cfrac import CfracWorkload
from repro.workloads.espresso.workload import EspressoWorkload
from repro.workloads.gawk.workload import FILL_SCRIPT as AWK_FILL
from repro.workloads.gawk.workload import GawkWorkload, _dictionary_records
from repro.workloads.ghost.docs import masters_thesis, reference_manual
from repro.workloads.ghost.workload import GhostWorkload
from repro.workloads.inputs import semiprimes
from repro.workloads.perl.workload import FILL_SCRIPT as PERL_FILL
from repro.workloads.perl.workload import (
    SORT_SCRIPT,
    PerlWorkload,
    _dictionary_file,
    _record_file,
)
from repro.workloads.registry import PROGRAM_ORDER

__all__ = ["DATASETS", "Execution", "SCALE", "STOCK", "executions"]

DATASETS = ("train", "test")

#: The share of each stock input the benchmark runs: small enough that
#: one paper cycle takes seconds, not a minute.  espresso's input is at
#: least one of its six PLAs, so below 1/6 espresso outweighs the other
#: programs (68% of paper's timed work at 0.1, against 37% at stock).
SCALE = 1 / 6

#: (program, dataset) -> (stock item count, least count), as each
#: workload's ``run()`` scales its input.
STOCK: Dict[Tuple[str, str], Tuple[int, int]] = {
    ("cfrac", "train"): (10, 1), ("cfrac", "test"): (10, 1),
    ("espresso", "train"): (6, 1), ("espresso", "test"): (6, 1),
    ("gawk", "train"): (700, 10), ("gawk", "test"): (700, 10),
    ("ghost", "train"): (22, 1), ("ghost", "test"): (18, 1),
    ("perl", "train"): (420, 10), ("perl", "test"): (600, 10),
}


@dataclass(frozen=True)
class Execution:
    """One seeded program execution: its input and how to run it."""

    program: str
    dataset: str
    #: Runs the input through the workload's public entry point.
    drive: Callable[[object], None]
    workload: type

    def run(self) -> Trace:
        """Execute on a fresh traced heap and return the trace."""
        heap = TracedHeap(program=self.program, dataset=self.dataset)
        self.drive(self.workload(heap))
        return heap.finish()


def _sub_seed(seed: int, program: str, dataset: str) -> int:
    return random.Random(f"{seed}:{program}:{dataset}").randrange(1 << 30)


def _cfrac(count: int, seed: int):
    numbers = semiprimes(count, seed=seed, digits=10)

    def drive(workload) -> None:
        for n in numbers:
            workload.record_result(n, workload.factor(n))

    return drive


def _espresso(dataset: str, count: int, seed: int):
    nvars, terms, rate = (9, 55, 0.35) if dataset == "train" else (10, 65, 0.30)

    def drive(workload) -> None:
        for index in range(count):
            workload.minimize_pla(nvars, terms, rate, seed + index)

    return drive


def _gawk(count: int, seed: int):
    records = _dictionary_records(count, seed)
    return lambda workload: workload.execute(AWK_FILL, records)


def _ghost(dataset: str, count: int, seed: int):
    make = reference_manual if dataset == "train" else masters_thesis
    source = make(pages=count, seed=seed)
    return lambda workload: workload.render(source)


def _perl(dataset: str, count: int, seed: int):
    if dataset == "train":
        script, lines = SORT_SCRIPT, _record_file(count, seed)
    else:
        script, lines = PERL_FILL, _dictionary_file(count, seed)
    return lambda workload: workload.execute(script, lines)


def executions(seed: int) -> List[Execution]:
    """The seed's ten executions, in table order (program, then dataset)."""
    result = []
    for program in PROGRAM_ORDER:
        for dataset in DATASETS:
            stock, least = STOCK[(program, dataset)]
            count = max(least, round(stock * SCALE))
            sub = _sub_seed(seed, program, dataset)
            if program == "cfrac":
                drive, workload = _cfrac(count, sub), CfracWorkload
            elif program == "espresso":
                drive, workload = _espresso(dataset, count, sub), EspressoWorkload
            elif program == "gawk":
                drive, workload = _gawk(count, sub), GawkWorkload
            elif program == "ghost":
                drive, workload = _ghost(dataset, count, sub), GhostWorkload
            else:
                drive, workload = _perl(dataset, count, sub), PerlWorkload
            result.append(Execution(program, dataset, drive, workload))
    return result


"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload with every second cycle traced, then the per-layer ledger, and
prints the per-layer metrics (see ``perfbench/README.md``).  The
last line of standard output is the result object; diagnostics go to
standard error.  The program under test is imported from the
checkout's ``src`` directory and nowhere else: without it the run exits
with status 1 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for traces the benchmark writes; removed after each run.
WORK_ROOT = ROOT / ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("capture", "paper", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slow-layer",
                        choices=("tracefile.write", "core.train"),
                        help="make each call into this layer twice "
                             "(for perfbench/selftest.py)")
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's sources first on the path, refusing any other."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")
    # Search sessions record the git commit; keep git from looking for a
    # repository above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from perfbench.bench import WORKLOADS, Run
    from perfbench.ledger import traced_run

    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"work-{os.getpid()}"
    run = Run(seed=args.seed, seconds=args.seconds, work=work,
              slow_layer=args.slow_layer)
    try:
        if args.trace:
            result, metrics = traced_run(args.workload, run, WORK_ROOT)
        else:
            result = WORKLOADS[args.workload](run)
            metrics = result.metrics()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in result.errors:
        print(f"perfbench: failed unit: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

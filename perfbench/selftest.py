"""Prove the end-to-end bounds bite: make one layer do its work twice.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py [--seeds 1 2 3 4 5] [--seconds 25]

Each case names a layer, the workload whose timed region exercises it
and one whose timed region bypasses it.  For every seed both workloads
run once normally and once with ``--slow-layer`` back to back
(alternating which goes first), and each metric's worsening is the
median over seeds of the paired worsening, compared with the bound in
``BENCHMARK.json``.  The self-test passes when the exercising workload's
metric is worse by more than its bound, and every end-to-end metric of
the bypassing workload stays within its bound, except those a case
names as also exercising the layer (search's set-up writes its traces).
Exits 0 on a pass, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (layer, exercising workload, metric that must cross, bypassing
#: workload, its metrics that also include the layer).
CASES = (
    ("tracefile.write", "capture", "events_per_s", "search", ("setup_s",)),
    ("core.train", "paper", "events_per_s", "capture", ()),
)


def run_bench(workload: str, seed: int, seconds: float,
              slow_layer: str = None) -> dict:
    """One untraced benchmark run in a child process; its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if slow_layer:
        cmd += ["--slow-layer", slow_layer]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def worsening(metric: dict, parent: float, child: float) -> float:
    """How much worse ``child`` is than ``parent``, as a share of it."""
    if metric["better"] == "lower":
        return (child - parent) / parent
    return (parent - child) / parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[1, 2, 3, 4, 5])
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    passed = True
    for layer, hit, hit_metric, bypass, exempt in CASES:
        for workload in (hit, bypass):
            pairs = []
            for index, seed in enumerate(args.seeds):
                order = [None, layer] if index % 2 == 0 else [layer, None]
                runs = {slow_layer: run_bench(workload, seed, args.seconds,
                                              slow_layer=slow_layer)
                        for slow_layer in order}
                pairs.append((runs[None]["metrics"], runs[layer]["metrics"]))
            for name, metric in metrics.items():
                base = statistics.median(n[name]["value"] for n, _ in pairs)
                doubled = statistics.median(s[name]["value"] for _, s in pairs)
                worse = statistics.median(
                    worsening(metric, n[name]["value"], s[name]["value"])
                    for n, s in pairs)
                crossed = worse > metric["bound"]
                if workload == hit and name == hit_metric:
                    ok, want = crossed, "cross"
                elif workload == bypass and name not in exempt:
                    ok, want = not crossed, "stay within"
                else:
                    ok, want = True, "report"
                passed &= ok
                print(f"{layer:15s} {workload:8s} {name:22s} "
                      f"{base:12.5g} -> {doubled:12.5g} "
                      f"worse {worse:+7.1%} bound {metric['bound']:.0%} "
                      f"must {want:11s} {'ok' if ok else 'FAIL'}",
                      flush=True)
    print("self-test", "passed" if passed else "FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime.tracefile import save_trace

from perfbench.bench import Result, Run, at_reference_speed
from perfbench.inputs import executions
from perfbench.ledger import _tail

ROOT = Path(__file__).resolve().parent.parent


def _capture(seed: int, directory: Path) -> dict:
    directory.mkdir()
    for execution in executions(seed):
        name = f"{execution.program}-{execution.dataset}.rtr3"
        save_trace(execution.run(), directory / name)
    return {path.name: path.read_bytes()
            for path in sorted(directory.iterdir())}


def test_seeded_traces_repeat_byte_for_byte_and_differ_by_seed(tmp_path):
    first = _capture(1, tmp_path / "a")
    again = _capture(1, tmp_path / "b")
    other = _capture(2, tmp_path / "c")
    assert len(first) == 10
    assert first == again
    assert sorted(other) == sorted(first)
    for name in first:
        assert other[name] != first[name], name


def test_the_slow_layer_is_called_twice_and_others_once(tmp_path):
    calls = []
    run = Run(seed=1, seconds=1, work=tmp_path, slow_layer="core.train")
    assert run.call("core.train", calls.append, "train") is None
    run.call("core.evaluate", calls.append, "evaluate")
    assert calls == ["train", "train", "evaluate"]


def test_layer_calls_are_timed_at_the_reference_speed(tmp_path):
    run = Run(seed=1, seconds=1, work=tmp_path)
    run.call("core.train", time.sleep, 0.01)
    assert len(run.references) == 1
    assert run.wall >= 0.01
    assert run.timed == pytest.approx(
        at_reference_speed(run.wall, run.references[0]))


def test_a_resampled_call_is_timed_in_segments(tmp_path):
    run = Run(seed=1, seconds=1, work=tmp_path)

    def work():
        time.sleep(0.01)
        run.resample()
        time.sleep(0.01)

    run.call("search.run", work)
    assert len(run.references) == 2
    assert run.wall >= 0.02
    assert run.wall < 0.02 + run.references[1]


def test_a_unit_that_raises_is_counted_and_does_not_abort():
    result = Result(setup_s=[1.0])

    def boom():
        raise ValueError("bad output")

    assert result.unit("boom", boom) is None
    assert result.unit("fine", lambda: 7) == 7
    assert (result.attempted, result.failed) == (2, 1)
    assert result.errors == ["boom: ValueError: bad output"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(30)]
    pct, value = _tail(samples)
    assert value == 19.0
    assert sum(1 for s in samples if s > value) == 10
    assert round(pct, 2) == 66.67
    assert _tail([3.0, 1.0, 2.0]) == (50.0, 2.0)


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "capture",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

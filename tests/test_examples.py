"""Smoke-tests: every shipped example must run to completion and print
its self-verification lines (examples double as living documentation, so
they are tested like code)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

CHECKS = {
    "quickstart.py": ["state identical after recovery: True"],
    "batch_analytics.py": ["tree-reduced sum of squares", "partial-merge share"],
    "group_size_tuning.py": ["final group size", "tuner actions"],
    "adaptive_streaming.py": ["final reducer count", "elasticity decisions"],
    "elastic_scaling.py": [
        "counts identical to fixed-size run: True",
        "resizes applied: 2",
    ],
    "trace_telemetry.py": ["span totals agree with counters: True"],
    "network_cluster.py": [
        "shuffle result over tcp == reference: True",
        "result exact after tcp worker loss: True",
        "recoveries: 1",
    ],
}

SLOW_CHECKS = {
    "yahoo_benchmark.py": [
        "micro-batch groupby  == reference: True",
        "micro-batch reduceby == reference: True",
        "continuous (Flink)   == reference: True",
    ],
    "video_analytics.py": ["total heartbeats accounted: 1200"],
    "fault_recovery.py": [
        "results exact after crash: True",
        "exactly-once output after rollback:   True",
    ],
}


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, (
        f"{name} failed:\n{result.stdout[-2000:]}\n{result.stderr[-2000:]}"
    )
    return result.stdout


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_example(name):
    stdout = run_example(name)
    for needle in CHECKS[name]:
        assert needle in stdout, f"{name}: missing {needle!r} in output"


@pytest.mark.parametrize("name", sorted(SLOW_CHECKS))
def test_example_slow(name):
    stdout = run_example(name)
    for needle in SLOW_CHECKS[name]:
        assert needle in stdout, f"{name}: missing {needle!r} in output"


def test_every_example_is_covered():
    shipped = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    covered = set(CHECKS) | set(SLOW_CHECKS)
    assert shipped == covered, f"uncovered examples: {shipped ^ covered}"

"""Shared helpers for engine-level tests (importable, unlike conftest)."""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Optional

from repro.common.config import (
    EXECUTOR_BACKENDS,
    TRANSPORT_BACKENDS,
    EngineConf,
    ExecutorConf,
    SchedulingMode,
    TransportConf,
)
from repro.engine.cluster import LocalCluster

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

ALL_MODES = list(SchedulingMode)
ALL_BACKENDS = list(EXECUTOR_BACKENDS)
ALL_TRANSPORTS = list(TRANSPORT_BACKENDS)


def make_cluster(
    mode: SchedulingMode,
    workers: int = 3,
    slots: int = 2,
    backend: Optional[str] = None,
    transport: Optional[str] = None,
    **kwargs,
):
    """Build a LocalCluster for tests.

    ``transport="inproc"`` pins a test to the in-process transport even
    when CI forces ``REPRO_TRANSPORT=tcp`` — required by tests whose
    closures observe shared memory (captured locks, mutated lists),
    which cannot cross a real wire.
    """
    conf = EngineConf(
        num_workers=workers,
        slots_per_worker=slots,
        scheduling_mode=mode,
        **kwargs,
    )
    if backend is not None:
        conf.executor = ExecutorConf(backend=backend)
    if transport is not None:
        conf.transport = TransportConf(backend=transport)
    return LocalCluster(conf)


def run_under_hash_seed(script: str, seed: int) -> str:
    """Run ``script`` in a fresh interpreter with ``PYTHONHASHSEED=seed``
    and return its stdout: what differs between two seeds would differ
    between two processes of one run."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout

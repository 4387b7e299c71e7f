"""Shared fixtures for the test suite.

Helper factories live in ``engine_test_utils`` (a plain module) so test
files can import them without relying on conftest-as-a-module, which
breaks when tests/ and benchmarks/ are collected in one pytest run."""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.common.config import EngineConf, SchedulingMode
from repro.engine.cluster import LocalCluster
from repro.net.server import live_servers
from repro.net.transport import SENDER_THREAD_MARK


@pytest.fixture(autouse=True)
def no_leaked_executors():
    """Fail any test that leaves stray non-daemon threads, one-way sender
    threads (daemons, so named explicitly), live child processes, or open
    tcp-transport servers behind (leaked executor backends, forgotten
    shutdowns, unclosed transports)."""

    def watched(thread: threading.Thread) -> bool:
        return not thread.daemon or SENDER_THREAD_MARK in thread.name

    before = {t for t in threading.enumerate() if watched(t)}
    servers_before = set(live_servers())
    yield
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        threads = [
            t
            for t in threading.enumerate()
            if watched(t) and t.is_alive() and t not in before
        ]
        children = multiprocessing.active_children()
        servers = [s for s in live_servers() if s not in servers_before]
        if not threads and not children and not servers:
            return
        time.sleep(0.05)
    leaks = [f"thread {t.name!r}" for t in threads]
    leaks += [f"process pid={p.pid}" for p in children]
    leaks += [f"server {s.address}" for s in servers]
    pytest.fail(f"test leaked executor resources: {', '.join(leaks)}")


@pytest.fixture
def drizzle_cluster():
    conf = EngineConf(
        num_workers=3,
        slots_per_worker=2,
        scheduling_mode=SchedulingMode.DRIZZLE,
        group_size=3,
    )
    with LocalCluster(conf) as cluster:
        yield cluster


@pytest.fixture
def spark_cluster():
    conf = EngineConf(
        num_workers=3, slots_per_worker=2, scheduling_mode=SchedulingMode.PER_BATCH
    )
    with LocalCluster(conf) as cluster:
        yield cluster



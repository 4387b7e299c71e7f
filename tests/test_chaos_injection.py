"""Integration tests: hand-built fault plans injected into real clusters.

Each test arms the global injector with an exact schedule (no sampling),
runs a job, and asserts that (a) the fault actually fired and (b) the
result is byte-for-byte what a fault-free run produces — the engine's
recovery machinery, not luck, absorbed the fault.
"""

import contextlib
import socket
import threading
import time

import pytest

from repro.chaos.injector import ChaosInjector, install, uninstall
from repro.chaos.plan import (
    KIND_BLOCK_DELETE,
    KIND_DIAL_REFUSE,
    KIND_EXEC_STRAGGLE,
    KIND_WORKER_KILL,
    SITE_BLOCKS_FETCH,
    SITE_EXEC_COMPUTE,
    SITE_NET_DIAL,
    SITE_WORKER_TASK,
    FaultEvent,
    FaultPlan,
)
from repro.common.config import (
    EngineConf,
    MonitorConf,
    SchedulingMode,
    SpeculationConf,
    TransportConf,
)
from repro.common.errors import StageTimeout
from repro.common.metrics import (
    COUNT_NET_CONNECT_RETRIES,
    COUNT_NET_REDIALS,
    COUNT_SPECULATIVE,
    MetricsRegistry,
)
from repro.dag.dataset import SourceDataset, parallelize
from repro.dag.plan import collect_action, compile_plan, dict_action
from repro.engine.cluster import LocalCluster
from repro.net.pool import ConnectionPool


@contextlib.contextmanager
def armed(events, metrics=None, kill_budget=1):
    """Install a hand-built plan for the duration of the block."""
    inj = ChaosInjector(FaultPlan(events), metrics=metrics, kill_budget=kill_budget)
    install(inj)
    try:
        yield inj
    finally:
        uninstall(inj)


def wordcount_plan(n=60, parts=4, reds=3):
    ds = (
        parallelize([f"w{i % 7}" for i in range(n)], parts)
        .map(lambda w: (w, 1))
        .reduce_by_key(lambda a, b: a + b, reds)
    )
    return compile_plan(ds, dict_action())


def expected_wordcount(n=60):
    out = {}
    for i in range(n):
        out[f"w{i % 7}"] = out.get(f"w{i % 7}", 0) + 1
    return out


def make_conf(**kwargs):
    defaults = dict(
        num_workers=3,
        slots_per_worker=2,
        scheduling_mode=SchedulingMode.DRIZZLE,
        group_size=1,
    )
    defaults.update(kwargs)
    return EngineConf(**defaults)


class TestBlockDeleteRecovery:
    def test_deleted_bucket_recovers_to_exact_result(self):
        # A shuffle bucket vanishes -> FetchFailed -> the driver
        # regenerates the lost map output (§3.3) and the job still
        # produces the fault-free answer.
        conf = make_conf(transport=TransportConf(backend="inproc"))
        with LocalCluster(conf) as cluster:
            with armed(
                [FaultEvent(0, SITE_BLOCKS_FETCH, KIND_BLOCK_DELETE, at_hit=1)],
                metrics=cluster.metrics,
            ) as inj:
                out = cluster.run_plan(wordcount_plan())
                assert inj.injected_count == 1
            assert out == expected_wordcount()
            assert cluster.metrics.counter("chaos.block_delete").value == 1

    def test_batched_fetch_failure_over_tcp(self):
        # The partial-failure path of the *batched* fetch_buckets reply
        # over real sockets: one bucket in the batch is gone, the
        # reducer must surface FetchFailed for exactly that map output and
        # recovery must still converge to the exact result.
        conf = make_conf(
            transport=TransportConf(
                backend="tcp",
                connect_timeout_s=0.5,
                call_timeout_s=5.0,
            ),
        )
        with LocalCluster(conf) as cluster:
            events = [
                FaultEvent(0, SITE_BLOCKS_FETCH, KIND_BLOCK_DELETE, at_hit=1),
                FaultEvent(1, SITE_BLOCKS_FETCH, KIND_BLOCK_DELETE, at_hit=3),
            ]
            with armed(events, metrics=cluster.metrics) as inj:
                out = cluster.run_plan(wordcount_plan(n=120))
                assert inj.injected_count >= 1
            assert out == expected_wordcount(n=120)
            assert cluster.metrics.counter("chaos.block_delete").value >= 1


class TestWorkerKillRecovery:
    def test_kill_at_task_entry_recovers(self):
        conf = make_conf(
            transport=TransportConf(backend="inproc"),
            monitor=MonitorConf(
                enable_heartbeats=True,
                heartbeat_interval_s=0.05,
                heartbeat_timeout_s=0.3,
            ),
        )
        with LocalCluster(conf) as cluster:
            with armed(
                [FaultEvent(0, SITE_WORKER_TASK, KIND_WORKER_KILL, at_hit=2)],
                metrics=cluster.metrics,
            ) as inj:
                out = cluster.run_plan(wordcount_plan())
                assert inj.injected_count == 1
            assert out == expected_wordcount()
            # Exactly one worker died; the cluster kept the rest.
            dead = [w for w in cluster.workers.values() if w.is_dead]
            assert len(dead) == 1


class TestSpeculationOnInjectedStraggler:
    def test_straggler_trips_speculation(self):
        conf = make_conf(
            speculation=SpeculationConf(
                enabled=True,
                check_interval_s=0.02,
                multiplier=3.0,
                min_runtime_s=0.05,
                min_completed_fraction=0.5,
            ),
        )
        with LocalCluster(conf) as cluster:
            # One task stalls 1.5s at compute entry; the rest are instant.
            # The speculation monitor must clone it onto a fast worker and
            # the fast copy's (identical) result must win.
            straggle = FaultEvent(
                0, SITE_EXEC_COMPUTE, KIND_EXEC_STRAGGLE, at_hit=1, param=1.5
            )
            with armed([straggle], metrics=cluster.metrics) as inj:
                ds = SourceDataset(lambda i: [i], 6).map(lambda x: x * 2)
                start = time.monotonic()
                out = cluster.run_plan(compile_plan(ds, collect_action()))
                elapsed = time.monotonic() - start
                assert inj.injected_count == 1
            assert sorted(out) == [0, 2, 4, 6, 8, 10]
            assert elapsed < 1.4  # did not wait out the injected stall
            assert cluster.metrics.counter(COUNT_SPECULATIVE).value >= 1


class TestStageTimeout:
    def test_wait_job_deadline_names_stalled_stage(self):
        with LocalCluster(make_conf()) as cluster:
            plan = compile_plan(
                SourceDataset(lambda i: [i], 2).map(lambda x: time.sleep(1.0) or x),
                collect_action(),
            )
            job_ids = cluster.driver.submit_group([plan])
            with pytest.raises(StageTimeout) as exc:
                cluster.driver.wait_job(job_ids[0], timeout=0.05)
            err = exc.value
            assert err.timeout_s == 0.05
            assert err.pending  # names the unfinished partitions
            assert err.workers  # and where they were placed
            assert "stalled" in str(err)
            # The job itself is healthy; it finishes once given time.
            assert sorted(cluster.driver.wait_job(job_ids[0], timeout=10)) == [0, 1]

    def test_conf_stage_timeout_applies_without_explicit_timeout(self):
        with LocalCluster(make_conf(stage_timeout_s=0.05)) as cluster:
            plan = compile_plan(
                SourceDataset(lambda i: [i], 2).map(lambda x: time.sleep(0.8) or x),
                collect_action(),
            )
            job_ids = cluster.driver.submit_group([plan])
            with pytest.raises(StageTimeout):
                cluster.driver.wait_job(job_ids[0])
            assert sorted(cluster.driver.wait_job(job_ids[0], timeout=10)) == [0, 1]


class _OneShotServer:
    """A bare listener that accepts and immediately closes connections —
    enough for ConnectionPool dial tests without a MessageServer."""

    def __init__(self):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.addr = self._sock.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            conn.close()

    def close(self):
        self._stop.set()
        with contextlib.suppress(OSError):
            self._sock.close()
        self._thread.join(timeout=1)


class TestConnectionPoolChaos:
    def test_refused_dial_is_retried_with_backoff(self):
        server = _OneShotServer()
        metrics = MetricsRegistry()
        pool = ConnectionPool(metrics, retry_backoff_s=0.01, max_retries=2)
        try:
            with armed(
                [FaultEvent(0, SITE_NET_DIAL, KIND_DIAL_REFUSE, at_hit=1)],
                metrics=metrics,
            ) as inj:
                with pool.connection(server.addr):
                    pass
                assert inj.injected_count == 1
            assert metrics.counter(COUNT_NET_CONNECT_RETRIES).value >= 1
        finally:
            pool.close()
            server.close()

    def test_redial_counter_distinguishes_reconnects(self):
        server = _OneShotServer()
        metrics = MetricsRegistry()
        pool = ConnectionPool(metrics, retry_backoff_s=0.01)
        try:
            with pool.connection(server.addr):
                pass
            assert metrics.counter(COUNT_NET_REDIALS).value == 0
            # Drop the pooled socket; the next checkout must re-dial and
            # be counted as a redial (first contact was free).
            pool.invalidate(server.addr)
            with pool.connection(server.addr):
                pass
            assert metrics.counter(COUNT_NET_REDIALS).value == 1
        finally:
            pool.close()
            server.close()

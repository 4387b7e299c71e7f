"""Fault-tolerance tests for the real engine (§3.3).

These inject machine failures at various points — before map tasks run,
between map and reduce, mid-group — and assert results are still exactly
correct, plus the §3.3 mechanics: parallel recovery across batches,
pre-population of completed dependencies, reuse of surviving intermediate
outputs, elasticity, and heartbeat-based detection.
"""

import threading
import time

import pytest

from repro.common.config import EngineConf, MonitorConf, SchedulingMode, TransportConf
from repro.common.errors import WorkerLost
from repro.common.metrics import COUNT_RECOVERIES, COUNT_TASKS_LAUNCHED
from repro.dag.dataset import SourceDataset
from repro.dag.plan import collect_action, compile_plan, dict_action
from repro.engine.cluster import LocalCluster

from engine_test_utils import ALL_TRANSPORTS, make_cluster


def slow_source(num_partitions, delay_s=0.15, items_per_partition=10):
    """Each partition's task stalls ``delay_s`` on its worker.  The stall
    sits in the first pipeline step: the driver reads the source itself
    when the job is submitted."""

    def partition_fn(index):
        return list(range(index * items_per_partition, (index + 1) * items_per_partition))

    def stall(_partition, records):
        time.sleep(delay_s)
        return records

    return SourceDataset(partition_fn, num_partitions).map_partitions(stall)


def keyed_sum_expected(total_items, num_keys):
    expected = {}
    for x in range(total_items):
        expected[x % num_keys] = expected.get(x % num_keys, 0) + x
    return expected


@pytest.mark.parametrize(
    "mode", [SchedulingMode.DRIZZLE, SchedulingMode.PER_BATCH, SchedulingMode.PRE_SCHEDULED]
)
class TestKillDuringJob:
    def test_kill_worker_mid_map(self, mode):
        with make_cluster(mode, workers=4, slots=1) as cluster:
            ds = slow_source(8).map(lambda x: (x % 4, x)).reduce_by_key(
                lambda a, b: a + b, 4
            )
            plan = compile_plan(ds, dict_action())
            killer = threading.Timer(0.05, lambda: cluster.kill_worker("worker-1"))
            killer.start()
            result = cluster.run_plan(plan)
            assert result == keyed_sum_expected(80, 4)
            assert cluster.metrics.counter(COUNT_RECOVERIES).value == 1

    def test_kill_two_workers(self, mode):
        with make_cluster(mode, workers=4, slots=1) as cluster:
            ds = slow_source(8).map(lambda x: (x % 3, x)).reduce_by_key(
                lambda a, b: a + b, 3
            )
            plan = compile_plan(ds, dict_action())
            t1 = threading.Timer(0.05, lambda: cluster.kill_worker("worker-0"))
            t2 = threading.Timer(0.12, lambda: cluster.kill_worker("worker-2"))
            t1.start()
            t2.start()
            result = cluster.run_plan(plan)
            assert result == keyed_sum_expected(80, 3)


class TestFetchFailureRecovery:
    def test_kill_after_maps_before_reduce(self):
        """Maps complete, then their machine dies: reduce tasks hit fetch
        failures, the driver regenerates the lost map outputs, and the job
        still produces the exact answer."""
        # Pinned inproc: the reduce closure captures a threading.Event to
        # time the kill — shared-memory coordination that cannot cross a
        # real wire.
        with make_cluster(
            SchedulingMode.DRIZZLE, workers=4, slots=1, transport="inproc"
        ) as cluster:
            barrier = threading.Event()

            def source(index):
                # Reduce-side stall so the kill lands between stages.
                return list(range(index * 5, index * 5 + 5))

            def slow_reduce(a, b):
                barrier.wait(0.3)
                return a + b

            ds = (
                SourceDataset(source, 4)
                .map(lambda x: (x % 2, x))
                .reduce_by_key(slow_reduce, 2)
            )
            plan = compile_plan(ds, dict_action())

            def kill_soon():
                time.sleep(0.1)
                cluster.kill_worker("worker-3")
                barrier.set()

            threading.Thread(target=kill_soon, daemon=True).start()
            result = cluster.run_plan(plan)
            assert result == keyed_sum_expected(20, 2)


class TestParallelRecovery:
    def test_recovery_spans_all_inflight_batches(self):
        """Killing one machine while a whole group is in flight recovers
        every affected micro-batch (parallel recovery, §3.3)."""
        with make_cluster(SchedulingMode.DRIZZLE, workers=4, slots=1, group_size=4) as cluster:
            def build(b):
                ds = slow_source(4, delay_s=0.1).map(
                    lambda x, b=b: (x % 2, x + b)
                ).reduce_by_key(lambda a, b: a + b, 2)
                return compile_plan(ds, dict_action())

            plans = [build(b) for b in range(4)]
            killer = threading.Timer(0.05, lambda: cluster.kill_worker("worker-2"))
            killer.start()
            results = cluster.run_group(plans, job_keys=[f"b{b}" for b in range(4)])
            for b, result in enumerate(results):
                expected = {}
                for x in range(40):
                    expected[x % 2] = expected.get(x % 2, 0) + x + b
                assert result == expected


class TestIntermediateReuse:
    # Both tests pinned inproc: the map step counts invocations in a
    # captured list guarded by a captured lock — observable only while
    # driver and workers share memory.
    def test_resubmission_reuses_surviving_map_outputs(self):
        """Re-submitting the same job_key with reuse=True must skip map
        tasks whose outputs survived (lineage reuse across attempts)."""
        calls = []
        lock = threading.Lock()

        def counted(record):
            with lock:
                calls.append(record)
            return record

        with make_cluster(
            SchedulingMode.DRIZZLE, workers=2, slots=2, transport="inproc"
        ) as cluster:
            ds = (
                SourceDataset(lambda index: [(index % 2, index)], 4)
                .map(counted)
                .reduce_by_key(lambda a, b: a + b, 2)
            )
            plan = compile_plan(ds, dict_action())
            first = cluster.run_plan(plan, job_key="batch-7")
            n_first = len(calls)
            second = cluster.run_plan(plan, job_key="batch-7", reuse=True)
            assert first == second
            # No map task re-ran: outputs were all still available.
            assert len(calls) == n_first

    def test_resubmission_without_reuse_recomputes(self):
        calls = []
        lock = threading.Lock()

        def counted(record):
            with lock:
                calls.append(record)
            return record

        with make_cluster(
            SchedulingMode.DRIZZLE, workers=2, slots=2, transport="inproc"
        ) as cluster:
            ds = (
                SourceDataset(lambda index: [(index % 2, index)], 4)
                .map(counted)
                .reduce_by_key(lambda a, b: a + b, 2)
            )
            plan = compile_plan(ds, dict_action())
            cluster.run_plan(plan, job_key="batch-7")
            n_first = len(calls)
            cluster.run_plan(plan, job_key="batch-7", reuse=False)
            assert len(calls) == 2 * n_first


class TestElasticity:
    # Pinned inproc: map steps record executing-thread names into a
    # captured set (shared-memory observation).
    def test_added_worker_used_by_next_group(self):
        with make_cluster(
            SchedulingMode.DRIZZLE, workers=2, slots=1, transport="inproc"
        ) as cluster:
            new_id = cluster.add_worker()
            seen = set()
            lock = threading.Lock()

            def where(record):
                with lock:
                    seen.add(threading.current_thread().name.split("-slot")[0])
                return record

            ds = SourceDataset(lambda index: [index], 6).map(where)
            out = cluster.collect(ds)
            assert sorted(out) == list(range(6))
            assert new_id in cluster.alive_workers()
            assert any(name.startswith(new_id) for name in seen)

    def test_decommissioned_worker_excluded_from_placement(self):
        with make_cluster(
            SchedulingMode.DRIZZLE, workers=3, slots=1, transport="inproc"
        ) as cluster:
            cluster.decommission_worker("worker-1")
            seen = set()
            lock = threading.Lock()

            def where(record):
                with lock:
                    seen.add(threading.current_thread().name.split("-slot")[0])
                return record

            out = cluster.collect(SourceDataset(lambda index: [index], 6).map(where))
            assert sorted(out) == list(range(6))
            assert not any(name.startswith("worker-1") for name in seen)

    def test_all_workers_lost_fails_job(self):
        with make_cluster(SchedulingMode.DRIZZLE, workers=1, slots=1) as cluster:
            ds = slow_source(2, delay_s=0.3)
            plan = compile_plan(ds, collect_action())
            job_ids = cluster.driver.submit_group([plan])
            cluster.kill_worker("worker-0")
            with pytest.raises(WorkerLost):
                cluster.driver.wait_job(job_ids[0], timeout=5)


class TestHeartbeatDetection:
    def test_silent_crash_detected_by_heartbeat_timeout(self):
        conf = EngineConf(
            num_workers=3,
            slots_per_worker=1,
            scheduling_mode=SchedulingMode.DRIZZLE,
            monitor=MonitorConf(
                enable_heartbeats=True,
                heartbeat_interval_s=0.03,
                heartbeat_timeout_s=0.12,
            ),
        )
        with LocalCluster(conf) as cluster:
            ds = slow_source(6, delay_s=0.2).map(lambda x: (x % 2, x)).reduce_by_key(
                lambda a, b: a + b, 2
            )
            plan = compile_plan(ds, dict_action())
            # Kill WITHOUT telling the driver: only heartbeats reveal it.
            killer = threading.Timer(
                0.05, lambda: cluster.kill_worker("worker-1", notify_driver=False)
            )
            killer.start()
            result = cluster.run_plan(plan)
            assert result == keyed_sum_expected(60, 2)
            assert cluster.metrics.counter(COUNT_RECOVERIES).value == 1

    def test_idempotent_worker_lost(self):
        with make_cluster(SchedulingMode.DRIZZLE, workers=3) as cluster:
            cluster.kill_worker("worker-0")
            # A second report of the same failure is a no-op.
            cluster.driver.on_worker_lost("worker-0")
            assert cluster.metrics.counter(COUNT_RECOVERIES).value == 1
            assert len(cluster.alive_workers()) == 2


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestBackendRecovery:
    """Kill-mid-job recovery on the concurrent backends (the inline
    backend runs tasks synchronously, so a mid-job kill has nothing to
    race against)."""

    def test_kill_worker_mid_map(self, backend):
        with make_cluster(
            SchedulingMode.DRIZZLE, workers=4, slots=1, backend=backend
        ) as cluster:
            ds = slow_source(8).map(lambda x: (x % 4, x)).reduce_by_key(
                lambda a, b: a + b, 4
            )
            plan = compile_plan(ds, dict_action())
            killer = threading.Timer(0.05, lambda: cluster.kill_worker("worker-1"))
            killer.start()
            result = cluster.run_plan(plan)
            killer.join()
            assert result == keyed_sum_expected(80, 4)
            assert cluster.metrics.counter(COUNT_RECOVERIES).value >= 1


@pytest.mark.parametrize("transport", ALL_TRANSPORTS)
class TestTransportRecovery:
    """The §3.3 recovery path must be transport-independent: over tcp a
    killed worker's *server* goes away, so failure surfaces as connection
    refused/reset instead of an in-process dead-set check — same
    WorkerLost, same recovery."""

    def test_kill_worker_mid_map(self, transport):
        with make_cluster(
            SchedulingMode.DRIZZLE, workers=4, slots=1, transport=transport
        ) as cluster:
            ds = slow_source(8).map(lambda x: (x % 4, x)).reduce_by_key(
                lambda a, b: a + b, 4
            )
            plan = compile_plan(ds, dict_action())
            killer = threading.Timer(0.05, lambda: cluster.kill_worker("worker-1"))
            killer.start()
            result = cluster.run_plan(plan)
            killer.join()
            assert result == keyed_sum_expected(80, 4)
            assert cluster.metrics.counter(COUNT_RECOVERIES).value >= 1

    def test_silent_server_death_detected_by_heartbeat(self, transport):
        """Acceptance: killing a tcp worker's server mid-job (driver NOT
        notified) is detected via heartbeat timeout and the job completes
        through recovery — recomputation, not a hang."""
        conf = EngineConf(
            num_workers=3,
            slots_per_worker=1,
            scheduling_mode=SchedulingMode.DRIZZLE,
            monitor=MonitorConf(
                enable_heartbeats=True,
                heartbeat_interval_s=0.03,
                heartbeat_timeout_s=0.12,
            ),
            transport=TransportConf(
                backend=transport, max_retries=1, retry_backoff_s=0.01
            ),
        )
        with LocalCluster(conf) as cluster:
            ds = slow_source(6, delay_s=0.2).map(lambda x: (x % 2, x)).reduce_by_key(
                lambda a, b: a + b, 2
            )
            plan = compile_plan(ds, dict_action())
            killer = threading.Timer(
                0.05, lambda: cluster.kill_worker("worker-1", notify_driver=False)
            )
            killer.start()
            result = cluster.run_plan(plan)
            killer.join()
            assert result == keyed_sum_expected(60, 2)
            assert cluster.metrics.counter(COUNT_RECOVERIES).value == 1
            # Recomputation happened: more task launches than the job's
            # 6 maps + 2 reduces.
            assert cluster.metrics.counter(COUNT_TASKS_LAUNCHED).value > 8

"""Worker-level tests: the local scheduler (§3.2) and task execution."""

import time

import pytest

from repro.common.config import EngineConf
from repro.common.errors import FetchFailed, WorkerLost
from repro.common.metrics import MetricsRegistry
from repro.dag.dataset import parallelize
from repro.dag.plan import collect_action, compile_plan
from repro.engine.rpc import Transport
from repro.engine.task import ReadSpec, SourceRead, SourceRegistry, TaskDescriptor, TaskId
from repro.engine.worker import Worker


class _FakeDriver:
    """Captures worker -> driver callbacks."""

    def __init__(self):
        self.reports = []
        self.delivery_failures = []

    def task_finished(self, report):
        self.reports.append(report)

    def notify_delivery_failed(self, *args):
        self.delivery_failures.append(args)

    def heartbeat(self, *args):
        pass


def make_worker(worker_id="w0", slots=2):
    transport = Transport(MetricsRegistry())
    driver = _FakeDriver()
    transport.register("driver", driver)
    worker = Worker(worker_id, transport, EngineConf(slots_per_worker=slots),
                    MetricsRegistry(), sources=SOURCES)
    worker.start()
    return worker, driver, transport


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


# The registry these tests' workers read their source tasks' input from.
SOURCES = SourceRegistry()


def source_read(plan, partition, job_id=0):
    """Register the plan's source for ``job_id`` as the driver does, and
    return the read spec it puts in a source task's descriptor."""
    SOURCES.register(job_id, {0: SourceRead(plan.stages[0].source_fn, readers=1)})
    return ReadSpec(job_id, 0, None, partition)


def narrow_descriptor(job_id=0, partition=0, data=(1, 2, 3)):
    plan = compile_plan(parallelize(list(data), 2).map(lambda x: x * 2), collect_action())
    return TaskDescriptor(
        task_id=TaskId(job_id, 0, partition),
        plan=plan,
        pre_scheduled=True,
        read=source_read(plan, partition, job_id),
    )


class TestTaskExecution:
    def test_runs_source_task_and_reports(self):
        worker, driver, _ = make_worker()
        worker.launch_tasks([narrow_descriptor()])
        assert wait_for(lambda: len(driver.reports) == 1)
        report = driver.reports[0]
        assert report.succeeded
        assert report.result == [2, 6]  # partition 0 of [1,2,3] over 2 parts
        worker.shutdown()

    def test_user_exception_reported_not_raised(self):
        worker, driver, _ = make_worker()
        plan = compile_plan(
            parallelize([1], 1).map(lambda x: 1 // 0), collect_action()
        )
        worker.launch_tasks(
            [
                TaskDescriptor(
                    task_id=TaskId(0, 0, 0),
                    plan=plan,
                    pre_scheduled=True,
                    read=source_read(plan, 0),
                )
            ]
        )
        assert wait_for(lambda: len(driver.reports) == 1)
        assert not driver.reports[0].succeeded
        assert isinstance(driver.reports[0].error, ZeroDivisionError)
        worker.shutdown()

    def test_dead_worker_discards_effects(self):
        worker, driver, _ = make_worker()
        worker.kill()
        worker.launch_tasks([narrow_descriptor()])
        time.sleep(0.1)
        assert driver.reports == []
        worker.shutdown()


class TestLocalScheduler:
    def test_parks_task_until_notified(self):
        worker, driver, _ = make_worker()
        plan = compile_plan(
            parallelize([("a", 1)], 1).reduce_by_key(lambda a, b: a + b, 1),
            collect_action(),
        )
        shuffle_id = plan.stages[0].output_shuffle.shuffle_id
        reduce_desc = TaskDescriptor(
            task_id=TaskId(0, 1, 0),
            plan=plan,
            pre_scheduled=True,
            deps=frozenset({(shuffle_id, 0)}),
        )
        worker.launch_tasks([reduce_desc])
        time.sleep(0.05)
        assert driver.reports == []  # still parked
        # Run the upstream map task on the same worker: its completion
        # notification must activate the parked reducer.
        map_desc = TaskDescriptor(
            task_id=TaskId(0, 0, 0),
            plan=plan,
            pre_scheduled=True,
            downstream={0: "w0"},
            read=source_read(plan, 0),
        )
        worker.launch_tasks([map_desc])
        assert wait_for(lambda: len(driver.reports) == 2)
        results = {r.task_id.stage_index: r for r in driver.reports}
        assert results[1].result == [("a", 1)]
        worker.shutdown()

    def test_pre_populate_activates(self):
        worker, driver, _ = make_worker()
        plan = compile_plan(
            parallelize([("a", 1)], 1).reduce_by_key(lambda a, b: a + b, 1),
            collect_action(),
        )
        shuffle_id = plan.stages[0].output_shuffle.shuffle_id
        # Map output already exists locally (as after a partial recovery).
        buckets = plan.stages[0].map_output_fn(0, iter([("a", 5)]))
        worker.blocks.put_map_output(0, shuffle_id, 0, buckets)
        reduce_desc = TaskDescriptor(
            task_id=TaskId(0, 1, 0),
            plan=plan,
            pre_scheduled=True,
            deps=frozenset({(shuffle_id, 0)}),
        )
        worker.launch_tasks([reduce_desc])
        worker.pre_populate(0, [((shuffle_id, 0), "w0", 0)])
        assert wait_for(lambda: len(driver.reports) == 1)
        assert driver.reports[0].result == [("a", 5)]
        worker.shutdown()

    def test_cancel_job_drops_parked_tasks(self):
        worker, driver, _ = make_worker()
        plan = compile_plan(
            parallelize([("a", 1)], 1).reduce_by_key(lambda a, b: a + b, 1),
            collect_action(),
        )
        shuffle_id = plan.stages[0].output_shuffle.shuffle_id
        worker.launch_tasks(
            [
                TaskDescriptor(
                    task_id=TaskId(0, 1, 0),
                    plan=plan,
                    pre_scheduled=True,
                    deps=frozenset({(shuffle_id, 0)}),
                )
            ]
        )
        worker.cancel_job(0)
        worker.notify_output(0, shuffle_id, 0, "w0")
        time.sleep(0.05)
        assert driver.reports == []
        worker.shutdown()

    def test_fetch_from_dead_peer_reports_fetch_failed(self):
        transport = Transport(MetricsRegistry())
        driver = _FakeDriver()
        transport.register("driver", driver)
        w0 = Worker("w0", transport, EngineConf(), MetricsRegistry())
        w1 = Worker("w1", transport, EngineConf(), MetricsRegistry())
        w0.start()
        w1.start()
        plan = compile_plan(
            parallelize([("a", 1)], 1).reduce_by_key(lambda a, b: a + b, 1),
            collect_action(),
        )
        shuffle_id = plan.stages[0].output_shuffle.shuffle_id
        # Tell w0 the block lives on w1, then kill w1.
        w1.kill()
        reduce_desc = TaskDescriptor(
            task_id=TaskId(0, 1, 0),
            plan=plan,
            pre_scheduled=True,
            deps=frozenset({(shuffle_id, 0)}),
        )
        w0.launch_tasks([reduce_desc])
        w0.pre_populate(0, [((shuffle_id, 0), "w1", 0)])
        assert wait_for(lambda: len(driver.reports) == 1)
        assert not driver.reports[0].succeeded
        assert isinstance(driver.reports[0].error, FetchFailed)
        w0.shutdown()
        w1.shutdown()

    def test_fetch_buckets_from_dead_worker_raises(self):
        worker, _driver, _ = make_worker()
        worker.kill()
        with pytest.raises(WorkerLost):
            worker.fetch_buckets(0, [(0, 0, 0, 0)])
        worker.shutdown()

    def test_drop_job_clears_blocks_and_locations(self):
        worker, _driver, _ = make_worker()
        worker.blocks.put_map_output(3, 0, 0, {0: [1]})
        worker.notify_output(3, 0, 0, "w0")
        worker.drop_job(3)
        assert not worker.blocks.has_map_output(3, 0, 0)

    def test_drop_job_releases_parked_tasks(self):
        worker, driver, _ = make_worker()
        worker.telemetry_metrics = MetricsRegistry()  # stamp accept times
        plan = compile_plan(
            parallelize([("a", 1)], 1).reduce_by_key(lambda a, b: a + b, 1),
            collect_action(),
        )
        shuffle_id = plan.stages[0].output_shuffle.shuffle_id
        worker.launch_tasks(
            [
                TaskDescriptor(
                    task_id=TaskId(0, 1, 0),
                    plan=plan,
                    pre_scheduled=True,
                    deps=frozenset({(shuffle_id, 0)}),
                )
            ]
        )
        worker.notify_output(0, shuffle_id, 1, "w0")  # not a dependency
        assert worker._pending and worker._parked and worker._accepted_at
        worker.drop_job(0)
        assert worker._pending == {} and worker._parked == {}
        assert worker._dep_locations == {} and worker._accepted_at == {}
        worker.shutdown()
        assert driver.reports == []

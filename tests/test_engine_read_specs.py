"""A source task launches with a read spec and its worker reads the input.

* The driver never calls a source's partition function: a launch's size
  does not depend on how many records a batch holds.
* Every attempt of a source task resolves its spec through the driver's
  source registry, on the worker (the parent process under the process
  backend), never on the driver's thread.
* A source task that runs after its job was released fails with an error
  naming the job and leaves nothing behind.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import pytest

from repro.common.config import ExecutorConf, SchedulingMode
from repro.common.metrics import COUNT_GROUPS_SCHEDULED, COUNT_NET_LAUNCH_BYTES_SENT
from repro.dag.dataset import SourceDataset, parallelize
from repro.engine.task import ReadSpec, SourceRead
from repro.streaming.context import StreamingContext
from repro.streaming.sources import FixedBatchSource

from engine_test_utils import make_cluster


def off_driver_backend():
    """The session's executor backend, unless it is ``inline``: that one
    runs a launch's tasks on the launching (driver) thread."""
    return "thread" if ExecutorConf().backend == "inline" else None


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def launch_bytes_per_group(records_per_batch, groups=3, group_size=4):
    batches = [
        [f"key-{(b * 7 + i) % 50:03d}-payload-{i:06d}" for i in range(records_per_batch)]
        for b in range(groups * group_size)
    ]
    with make_cluster(
        SchedulingMode.DRIZZLE, workers=2, transport="tcp", group_size=group_size
    ) as cluster:
        ctx = StreamingContext(cluster, FixedBatchSource(batches, 4))
        seen = []
        ctx.stream().map(lambda r: (r[:7], 1)).reduce_by_key(
            lambda a, b: a + b, 2
        ).foreach_batch(lambda b, records: seen.append(sum(v for _, v in records)))
        ctx.run_batches(groups * group_size)
        assert seen == [records_per_batch] * (groups * group_size)
        counters = cluster.metrics
        sent = counters.counter(COUNT_NET_LAUNCH_BYTES_SENT).value
        return sent / counters.counter(COUNT_GROUPS_SCHEDULED).value


class TestLaunchesCarryNoRecords:
    def test_launch_bytes_do_not_grow_with_the_batch(self):
        small = launch_bytes_per_group(200)
        large = launch_bytes_per_group(400)
        assert small > 0
        assert abs(large - small) / small < 0.05, (small, large)


class RecordingSource(FixedBatchSource):
    """A fixed source whose partition functions note the calling thread."""

    def __init__(self, batches, num_partitions):
        super().__init__(batches, num_partitions)
        self.threads = []

    def dataset_for(self, batch_range):
        inner = super().dataset_for(batch_range)

        def partition_fn(partition):
            self.threads.append(threading.get_ident())
            return inner.partition_fn(partition)

        return SourceDataset(partition_fn, inner.num_partitions)


MODES = [SchedulingMode.DRIZZLE, SchedulingMode.PER_BATCH]


class TestTheDriverReadsNothing:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_stream_partitions_are_read_off_the_driver_thread(self, mode):
        batches = [list(range(b, b + 12)) for b in range(6)]
        source = RecordingSource(batches, 3)
        with make_cluster(
            mode, workers=2, group_size=3, backend=off_driver_backend()
        ) as cluster:
            ctx = StreamingContext(cluster, source)
            out = {}
            ctx.stream().map(lambda x: x + 1).foreach_batch(
                lambda b, records: out.__setitem__(b, sorted(records))
            )
            ctx.run_batches(len(batches))
        assert out == {b: [x + 1 for x in batch] for b, batch in enumerate(batches)}
        assert len(source.threads) == len(batches) * 3
        assert threading.get_ident() not in source.threads

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_dataset_partitions_are_read_off_the_driver_thread(self, mode):
        threads = []

        def partition_fn(partition):
            threads.append(threading.get_ident())
            return range(partition * 5, partition * 5 + 5)

        with make_cluster(mode, workers=2, backend=off_driver_backend()) as cluster:
            got = cluster.collect(SourceDataset(partition_fn, 4).map(lambda x: 2 * x))
        assert sorted(got) == [2 * x for x in range(20)]
        assert len(threads) == 4
        assert threading.get_ident() not in threads


class TestLateSourceTask:
    def test_a_source_task_after_release_fails_and_leaves_nothing(self):
        from test_engine_release import settle, worker_job_ids

        with make_cluster(SchedulingMode.DRIZZLE, workers=2) as cluster:
            launched = []
            for worker in cluster.workers.values():

                def recording(descriptors, driver_epoch=None, worker=worker,
                              launch=worker.launch_tasks):
                    launched.extend((worker, d) for d in descriptors)
                    return launch(descriptors, driver_epoch=driver_epoch)

                worker.launch_tasks = recording
            reports = []
            driver = cluster.driver
            driver.task_finished = lambda report, done=driver.task_finished: (
                reports.append(report),
                done(report),
            )
            ds = parallelize(range(8), 2).map(lambda x: (x % 2, x)).reduce_by_key(
                lambda a, b: a + b, 2
            )
            assert sorted(cluster.collect(ds)) == [(0, 12), (1, 16)]
            settle(cluster)
            worker, late = next((w, d) for w, d in launched if d.read is not None)
            job_id = late.task_id.job_id
            assert driver.jobs == {} and driver.sources.job_ids() == set()
            reports.clear()
            worker.launch_tasks([late])
            assert wait_for(lambda: len(reports) == 1)
            (report,) = reports
            assert not report.succeeded
            assert f"job {job_id}" in str(report.error)
            assert driver.sources.job_ids() == set()
            for each in cluster.workers.values():
                assert worker_job_ids(each) == set()
                assert len(each.blocks) == 0


class TestSharedRead:
    def test_concurrent_readers_read_each_partition_once(self):
        """Stages sharing one input read each partition once and hand it
        to every one of them, whatever the interleaving of the threads."""
        readers, partitions = 8, 40  # one thread per reader, more than cores
        calls = Counter()
        lock = threading.Lock()

        def partition_fn(partition):
            with lock:
                calls[partition] += 1
            return [partition] * 5

        shared = SourceRead(partition_fn, readers=readers)
        wrong = []

        def take(reader):
            order = sorted(range(partitions), key=lambda p: (p * (reader + 3)) % 41)
            for partition in order:
                records = shared.read(ReadSpec(0, 0, None, partition))
                if records != [partition] * 5:
                    wrong.append((reader, partition, records))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=take, args=(r,)) for r in range(readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(old)
        assert wrong == []
        assert calls == {p: 1 for p in range(partitions)}
        assert shared._held == {}

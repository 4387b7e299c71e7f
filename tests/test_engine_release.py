"""Every job has one release point, and what a long run keeps per batch
stays small.

* A keyed streaming job is released at the checkpoint that covers its
  batch: the driver forgets it and each worker drops its blocks, learned
  locations, pending table and parked tasks.
* A job submitted without a key (``collect``, ``run_plan``, an unkeyed
  ``run_group``) is released as soon as its result is returned.
* A context with several output operations reads each batch's input once.
* Histogram samples are packed doubles, exact and addressed by index.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter

import pytest

from repro.common.config import SchedulingMode
from repro.common.errors import TaskError
from repro.common.metrics import Histogram
from repro.dag.dataset import SourceDataset, parallelize
from repro.dag.plan import collect_action, compile_plan
from repro.streaming.context import StreamingContext
from repro.streaming.sources import FixedBatchSource

from engine_test_utils import ALL_MODES, make_cluster


def worker_job_ids(worker):
    """Every job id the worker still holds per-job state for."""
    return (
        set(worker._pending)
        | {job_id for job_id, _key in worker._parked}
        | set(worker._dep_locations)
        | {key[0] for key in worker.blocks._blocks}
    )


def settle(cluster):
    """Wait until every worker has taken what the driver posted to it: a
    returned result's drops are posted without waiting for them."""
    for worker_id in cluster.workers:
        cluster.driver.transport.flush(worker_id)


def shuffle_dataset(n=40, parts=4, reducers=2):
    return parallelize(range(n), parts).map(lambda x: (x % 3, x)).reduce_by_key(
        lambda a, b: a + b, reducers
    )


class TestUnkeyedJobsAreReleased:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_five_collects_leave_nothing_behind(self, mode):
        with make_cluster(mode, workers=2) as cluster:
            for _ in range(5):
                assert sorted(cluster.collect(shuffle_dataset())) == [
                    (0, 273),
                    (1, 247),
                    (2, 260),
                ]
            assert cluster.driver.jobs == {}
            settle(cluster)
            for worker in cluster.workers.values():
                assert len(worker.blocks) == 0
                assert worker_job_ids(worker) == set()

    def test_a_failed_job_is_released_too(self):
        # Only the driver's side: a sibling task still running when the
        # job fails may write blocks after the drop (docs/architecture.md).
        def boom(x):
            raise ValueError("user code failed")

        with make_cluster(SchedulingMode.DRIZZLE, workers=2) as cluster:
            with pytest.raises(TaskError):
                cluster.collect(shuffle_dataset().map(boom))
            assert cluster.driver.jobs == {}

    @pytest.mark.parametrize(
        "mode", [SchedulingMode.DRIZZLE, SchedulingMode.PER_BATCH], ids=lambda m: m.value
    )
    def test_run_group_releases_only_the_unkeyed_jobs(self, mode):
        with make_cluster(mode, workers=2) as cluster:
            plans = [compile_plan(shuffle_dataset(), collect_action()) for _ in range(3)]
            results = cluster.run_group(plans, job_keys=[None, "kept", None])
            assert all(sorted(r) == sorted(results[0]) for r in results)
            kept = cluster.driver.job_id_for("kept")
            assert list(cluster.driver.jobs) == [kept]
            settle(cluster)
            for worker in cluster.workers.values():
                assert worker_job_ids(worker) <= {kept}
            cluster.driver.drop_jobs([kept])
            for worker in cluster.workers.values():
                assert worker_job_ids(worker) == set()


class TestStreamingJobsAreReleasedAtCheckpoints:
    def test_workers_hold_only_jobs_since_the_last_checkpoint(self):
        groups, group_size, interval = 50, 2, 4
        batches = [[f"k{(b + i) % 7}" for i in range(12)] for b in range(groups * group_size)]
        expected = Counter(word for batch in batches for word in batch)
        with make_cluster(
            SchedulingMode.DRIZZLE,
            workers=2,
            group_size=group_size,
            checkpoint_interval_batches=interval,
        ) as cluster:
            ctx = StreamingContext(cluster, FixedBatchSource(batches, 3))
            store = ctx.state_store("counts")
            ctx.stream().map(lambda w: (w, 1)).reduce_by_key(
                lambda a, b: a + b, 2
            ).update_state(store, merge=lambda a, b: a + b)
            for _ in range(groups):
                ctx.run_batches(group_size)
                live = set(cluster.driver.jobs)
                assert len(live) <= interval
                for worker in cluster.workers.values():
                    held = worker_job_ids(worker)
                    assert held <= live, (worker.worker_id, sorted(held - live))
                    assert len(worker._pending) <= interval
            assert dict(store.items()) == dict(expected)
            ctx.checkpoint()
            assert cluster.driver.jobs == {}
            for worker in cluster.workers.values():
                assert worker_job_ids(worker) == set()


class TestSourceRegistryIsReleased:
    """The driver's source registry holds an entry per live job and drops
    it at the job's release point, like every other per-job table."""

    def test_streaming_jobs_leave_the_registry_at_checkpoints(self):
        groups, group_size, interval = 50, 2, 4
        batches = [[f"k{(b + i) % 7}" for i in range(12)] for b in range(groups * group_size)]
        with make_cluster(
            SchedulingMode.DRIZZLE,
            workers=2,
            group_size=group_size,
            checkpoint_interval_batches=interval,
        ) as cluster:
            ctx = StreamingContext(cluster, FixedBatchSource(batches, 3))
            store = ctx.state_store("counts")
            ctx.stream().map(lambda w: (w, 1)).reduce_by_key(
                lambda a, b: a + b, 2
            ).update_state(store, merge=lambda a, b: a + b)
            for _ in range(groups):
                ctx.run_batches(group_size)
                registered = cluster.driver.sources.job_ids()
                since_checkpoint = set(
                    cluster.driver.job_ids_through(ctx.next_batch - 1)
                )
                assert registered == since_checkpoint
                assert len(registered) <= interval
            ctx.checkpoint()
            assert cluster.driver.sources.job_ids() == set()

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_collects_leave_nothing_in_the_registry(self, mode):
        with make_cluster(mode, workers=2) as cluster:
            for _ in range(5):
                cluster.collect(shuffle_dataset())
            assert cluster.driver.sources.job_ids() == set()


class CountingSource(FixedBatchSource):
    """A fixed source that counts how often each (batch, partition) is read."""

    def __init__(self, batches, num_partitions):
        super().__init__(batches, num_partitions)
        self.reads: Counter = Counter()

    def dataset_for(self, batch_range):
        inner = super().dataset_for(batch_range)

        def partition_fn(partition):
            self.reads[(batch_range.batch_index, partition)] += 1
            return inner.partition_fn(partition)

        return SourceDataset(partition_fn, inner.num_partitions)


class TestOneInputCopyPerBatch:
    @pytest.mark.parametrize(
        "mode", [SchedulingMode.DRIZZLE, SchedulingMode.PER_BATCH], ids=lambda m: m.value
    )
    def test_two_outputs_read_each_partition_once(self, mode):
        batches = [list(range(b, b + 9)) for b in range(6)]
        with make_cluster(mode, workers=2, group_size=3) as cluster:
            source = CountingSource(batches, 3)
            ctx = StreamingContext(cluster, source)
            doubled, evens = {}, {}
            stream = ctx.stream()
            stream.map(lambda x: 2 * x).foreach_batch(
                lambda b, records: doubled.__setitem__(b, sorted(records))
            )
            stream.filter(lambda x: x % 2 == 0).foreach_batch(
                lambda b, records: evens.__setitem__(b, sorted(records))
            )
            ctx.run_batches(len(batches))
        assert doubled == {b: sorted(2 * x for x in batch) for b, batch in enumerate(batches)}
        assert evens == {b: [x for x in batch if x % 2 == 0] for b, batch in enumerate(batches)}
        assert source.reads == {(b, p): 1 for b in range(len(batches)) for p in range(3)}


class TestHistogramFootprint:
    def test_samples_are_packed_and_exact(self):
        hist = Histogram("footprint")
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for i in range(100_000):
                # A fresh float per sample, like a measured duration.
                hist.record(i * 1e-3 + 1.0 / (i + 3))
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert grown < 1.2e6, grown  # boxed floats in a list: ~3.2 MB
        values = [i * 1e-3 + 1.0 / (i + 3) for i in range(100_000)]
        assert hist.snapshot() == values
        assert len(hist) == len(values)
        assert hist.read(99_998, 10) == (100_000, values[99_998:])
        hist.reset()
        assert hist.snapshot() == [] and hist.summary() == {"count": 0}

"""Driver-level unit tests: ledger/tuner feeding, job GC, timeouts,
decommissioning, and carry-over behaviour."""

import pytest

from repro.common.config import EngineConf, SchedulingMode, TunerConf
from repro.common.errors import ReproError
from repro.dag.dataset import parallelize
from repro.dag.plan import collect_action, compile_plan, dict_action
from repro.engine.cluster import LocalCluster
from repro.engine.task import TaskId, TaskReport

from engine_test_utils import make_cluster


def simple_plan(n=10, parts=2):
    return compile_plan(parallelize(range(n), parts), collect_action())


def shuffle_plan(n=20, parts=4, reds=2):
    ds = parallelize(range(n), parts).map(lambda x: (x % 3, x)).reduce_by_key(
        lambda a, b: a + b, reds
    )
    return compile_plan(ds, dict_action())


class TestJobLifecycle:
    def test_wait_job_timeout(self):
        with make_cluster(SchedulingMode.DRIZZLE) as cluster:
            # Submit a job whose tasks block on a slow step.
            import time

            from repro.dag.dataset import SourceDataset

            plan = compile_plan(
                SourceDataset(lambda i: [i], 2).map(lambda x: time.sleep(1.0) or x),
                collect_action(),
            )
            job_ids = cluster.driver.submit_group([plan])
            with pytest.raises(ReproError, match="did not finish"):
                cluster.driver.wait_job(job_ids[0], timeout=0.05)
            # It does finish eventually.
            assert sorted(cluster.driver.wait_job(job_ids[0], timeout=10)) == [0, 1]

    def test_drop_job_clears_worker_blocks(self):
        with make_cluster(SchedulingMode.DRIZZLE) as cluster:
            plan = shuffle_plan()
            job_ids = cluster.driver.submit_group([plan], job_keys=["k"])
            cluster.driver.wait_job(job_ids[0])
            blocks_before = sum(len(w.blocks) for w in cluster.workers.values())
            assert blocks_before > 0
            cluster.driver.drop_job(job_ids[0])
            blocks_after = sum(len(w.blocks) for w in cluster.workers.values())
            assert blocks_after == 0
            assert job_ids[0] not in cluster.driver.jobs

    def test_job_key_reuses_job_id(self):
        with make_cluster(SchedulingMode.DRIZZLE) as cluster:
            first = cluster.driver.submit_group([simple_plan()], job_keys=["b1"])
            cluster.driver.wait_job(first[0])
            second = cluster.driver.submit_group(
                [simple_plan()], job_keys=["b1"], reuse=True
            )
            assert first == second
            cluster.driver.wait_job(second[0])

    def test_distinct_keys_get_distinct_ids(self):
        with make_cluster(SchedulingMode.DRIZZLE) as cluster:
            a = cluster.driver.submit_group([simple_plan()], job_keys=["a"])
            b = cluster.driver.submit_group([simple_plan()], job_keys=["b"])
            assert a[0] != b[0]
            cluster.driver.wait_job(a[0])
            cluster.driver.wait_job(b[0])


class TestGroupLedgerAndTuner:
    def test_run_group_populates_ledger(self):
        with make_cluster(SchedulingMode.DRIZZLE, group_size=3) as cluster:
            cluster.run_group([simple_plan() for _ in range(3)])
            obs = cluster.driver.last_group
            assert obs is not None
            assert obs.wall_s > 0
            assert obs.scheduling_s >= 0
            assert 0.0 <= obs.overhead <= 1.0

    def test_tuner_fed_per_group(self):
        conf = EngineConf(
            num_workers=2,
            scheduling_mode=SchedulingMode.DRIZZLE,
            group_size=2,
            tuner=TunerConf(enabled=True),
        )
        with LocalCluster(conf) as cluster:
            cluster.run_group([simple_plan(), simple_plan()])
            cluster.run_group([simple_plan(), simple_plan()])
            assert len(cluster.driver.tuner.history) == 2

    def test_no_tuner_by_default(self):
        with make_cluster(SchedulingMode.DRIZZLE) as cluster:
            assert cluster.driver.tuner is None
            assert cluster.driver.current_group_size == cluster.conf.group_size


class TestMembership:
    def test_placement_excludes_draining(self):
        with make_cluster(SchedulingMode.DRIZZLE, workers=3) as cluster:
            cluster.driver.decommission_worker("worker-2")
            assert "worker-2" in cluster.driver.alive_workers()
            assert "worker-2" not in cluster.driver.placement_workers()

    def test_decommissioned_worker_can_return(self):
        with make_cluster(SchedulingMode.DRIZZLE, workers=2) as cluster:
            cluster.driver.decommission_worker("worker-0")
            cluster.driver.add_worker("worker-0")  # re-registers
            assert "worker-0" in cluster.driver.placement_workers()

    def test_no_workers_raises(self):
        with make_cluster(SchedulingMode.DRIZZLE, workers=1) as cluster:
            cluster.kill_worker("worker-0")
            with pytest.raises(ReproError):
                cluster.driver.submit_group([simple_plan()])

    def test_notify_delivery_failed_for_live_target_is_noop(self):
        with make_cluster(SchedulingMode.DRIZZLE, workers=2) as cluster:
            cluster.driver.notify_delivery_failed(0, 0, 0, "worker-0", "worker-1")
            assert len(cluster.driver.alive_workers()) == 2

    def test_notify_delivery_failed_for_dead_target_triggers_recovery(self):
        with make_cluster(SchedulingMode.DRIZZLE, workers=2) as cluster:
            cluster.workers["worker-1"].kill()  # dead but driver not told
            cluster.driver.notify_delivery_failed(0, 0, 0, "worker-0", "worker-1")
            assert cluster.driver.alive_workers() == ["worker-0"]


class TestDependencyRedelivery:
    def test_redelivered_notification_carries_the_producing_epoch(self):
        # A dropped map-output notification is re-sent by the driver as a
        # pre_populate entry.  It must carry the epoch of the attempt that
        # wrote the block, or the reader's min-epoch guard falls to 0 and
        # a stale co-named block from an older attempt could be served.
        with make_cluster(SchedulingMode.DRIZZLE, workers=2) as cluster:
            driver = cluster.driver
            plan = shuffle_plan()
            shuffle_id = plan.stages[0].output_shuffle.shuffle_id
            job = driver._register_job(plan, None, pre_scheduled=True, reuse=False)
            driver.task_finished(
                TaskReport(
                    task_id=TaskId(job.job_id, 0, 0, 2),
                    worker_id="worker-0",
                    succeeded=True,
                    output_sizes={},
                )
            )
            assert job.map_epochs[(shuffle_id, 0)] == 2
            driver.notify_delivery_failed(
                job.job_id, shuffle_id, 0, "worker-0", "worker-1"
            )
            learned = cluster.workers["worker-1"]._dep_locations[job.job_id]
            assert learned[(shuffle_id, 0)] == ("worker-0", 2)
            assert driver.alive_workers() == ["worker-0", "worker-1"]


class TestCarryOver:
    def test_carry_over_skips_only_live_outputs(self):
        with make_cluster(SchedulingMode.DRIZZLE, workers=3, slots=2) as cluster:
            plan = shuffle_plan()
            job_ids = cluster.driver.submit_group([plan], job_keys=["x"])
            first = cluster.driver.wait_job(job_ids[0])
            # Kill a worker holding some map outputs, then resubmit with
            # reuse: outputs on the dead machine must NOT be carried over.
            cluster.kill_worker("worker-0")
            second_ids = cluster.driver.submit_group(
                [shuffle_plan()], job_keys=["x"], reuse=True
            )
            second = cluster.driver.wait_job(second_ids[0])
            assert second == first


class TestSourceInputAcrossAttempts:
    """A source task's descriptor carries a read spec, never records; a
    re-run after a worker loss and a speculative clone carry the first
    attempt's spec and read the same records through it."""

    @staticmethod
    def record_launches(cluster):
        launched = []
        for worker in cluster.workers.values():

            def recording(descriptors, driver_epoch=None, launch=worker.launch_tasks):
                launched.extend(descriptors)
                return launch(descriptors, driver_epoch=driver_epoch)

            worker.launch_tasks = recording
        return launched

    @staticmethod
    def record_reads(cluster):
        """Every spec the workers resolve, with the records it gave."""
        reads = []
        registry = cluster.driver.sources

        def recording(spec, read=registry.read):
            records = read(spec)
            reads.append((spec, list(records)))
            return records

        registry.read = recording
        return reads

    @staticmethod
    def assert_same_input(descs, reads):
        """Every attempt carries the first attempt's spec, and every read
        of it gave the partition's records."""
        first = descs[0]
        partition = first.task_id.partition
        assert first.read.partition == partition
        assert first.read.batch_range is None  # a dataset's own source
        for later in descs[1:]:
            assert later.task_id.attempt > first.task_id.attempt
            assert later.read == first.read
        got = [records for spec, records in reads if spec == first.read]
        assert got, f"no attempt of partition {partition} read its input"
        assert all(records == list(range(24))[partition::6] for records in got)

    @staticmethod
    def stalled_plan(delay_s):
        import time

        def stall(_partition, records):
            time.sleep(delay_s)
            return records

        ds = (
            parallelize(range(24), 6)
            .map_partitions(stall)
            .map(lambda x: (x % 2, x))
            .reduce_by_key(lambda a, b: a + b, 2)
        )
        return compile_plan(ds, dict_action())

    @staticmethod
    def source_attempts(launched):
        by_partition = {}
        for desc in launched:
            if desc.task_id.stage_index == 0:
                by_partition.setdefault(desc.task_id.partition, []).append(desc)
        return by_partition

    def test_rerun_after_worker_loss_carries_the_first_input(self):
        with make_cluster(SchedulingMode.DRIZZLE, workers=3, slots=1) as cluster:
            launched = self.record_launches(cluster)
            reads = self.record_reads(cluster)
            job_ids = cluster.driver.submit_group([self.stalled_plan(0.2)])
            cluster.kill_worker("worker-1")  # its map tasks are mid-stall
            result = cluster.driver.wait_job(job_ids[0])
            assert result == {0: sum(range(0, 24, 2)), 1: sum(range(1, 24, 2))}
            attempts = self.source_attempts(launched)
            assert sorted(attempts) == list(range(6))
            reruns = [descs for descs in attempts.values() if len(descs) > 1]
            assert reruns, "the loss re-ran no source task"
            for descs in attempts.values():
                self.assert_same_input(descs, reads)

    def test_speculative_clone_carries_the_first_input(self):
        from repro.common.config import SpeculationConf
        from repro.common.metrics import COUNT_SPECULATIVE

        speculation = SpeculationConf(
            enabled=True,
            check_interval_s=0.02,
            multiplier=3.0,
            min_runtime_s=0.05,
            min_completed_fraction=0.5,
        )
        with make_cluster(
            SchedulingMode.DRIZZLE, workers=3, slots=2, speculation=speculation
        ) as cluster:
            cluster.workers["worker-0"].compute_delay_per_task_s = 0.8
            launched = self.record_launches(cluster)
            reads = self.record_reads(cluster)
            result = cluster.run_plan(self.stalled_plan(0.0))
            assert result == {0: sum(range(0, 24, 2)), 1: sum(range(1, 24, 2))}
            assert cluster.metrics.counter(COUNT_SPECULATIVE).value >= 1
            clones = [
                descs
                for descs in self.source_attempts(launched).values()
                if len(descs) > 1
            ]
            assert clones, "no source task was cloned"
            for descs in clones:
                assert len({d.task_id.attempt for d in descs}) == len(descs)
                self.assert_same_input(descs, reads)

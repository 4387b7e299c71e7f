"""End-to-end integration scenarios combining multiple subsystems.

These are the "would a user's production pipeline survive" tests: the
full Yahoo query with window emission, machine crashes mid-stream,
checkpoint restore on top of engine-level recovery, speculation under a
straggler, and elasticity — all against exact reference answers.
"""

import threading

from repro.common.config import EngineConf, SchedulingMode, SpeculationConf, TunerConf
from repro.engine.cluster import LocalCluster
from repro.streaming.context import StreamingContext
from repro.streaming.sinks import IdempotentSink
from repro.streaming.sources import FixedBatchSource
from repro.workloads.yahoo import YahooWorkload, attach_microbatch_query


def time_ordered_batches(events, num_batches):
    per = len(events) // num_batches
    return [events[i * per : (i + 1) * per] for i in range(num_batches)]


class TestYahooEndToEnd:
    def test_full_pipeline_with_crash_and_restore(self):
        """Yahoo query + watermark emission; one machine crashes during
        group 2; afterwards the driver-side state is corrupted and
        restored from checkpoint.  Final output must equal the reference
        exactly, with no duplicate window emissions."""
        workload = YahooWorkload(num_campaigns=8, ads_per_campaign=2, seed=21)
        num_batches = 6
        events = workload.generate(1200, 60.0)
        batches = time_ordered_batches(events, num_batches)
        conf = EngineConf(
            num_workers=4,
            slots_per_worker=2,
            scheduling_mode=SchedulingMode.DRIZZLE,
            group_size=2,
            checkpoint_interval_batches=4,
        )
        with LocalCluster(conf) as cluster:
            ctx = StreamingContext(cluster, FixedBatchSource(batches, 4), 0.05)
            store = ctx.state_store("windows")
            sink = IdempotentSink()
            attach_microbatch_query(
                ctx, workload, store, sink, window_s=10.0, optimized=True,
                watermark_for=lambda b: 10.0 * (b + 1),
            )
            killer = threading.Timer(0.03, lambda: cluster.kill_worker("worker-3"))
            killer.start()
            ctx.run_batches(num_batches)

            emitted = {(k, w): c for (k, w, c) in sink.all_records()}
            # Restore-and-replay after "losing" the driver state.
            store.restore({})
            ctx.restore_and_replay()
            emitted_after = {(k, w): c for (k, w, c) in sink.all_records()}
            assert emitted_after == emitted  # sink dedup: no new emissions

            reference = workload.expected_counts(events, 10.0)
            # Windows 0..4 closed (watermark reached 60 at batch 5 closes
            # 0..5 except the last partial... batch 5 watermark = 60, so
            # windows 0..5 all closed).
            closed_reference = {
                (c, w): n for (c, w), n in reference.items() if (w + 1) * 10.0 <= 60.0
            }
            assert emitted == closed_reference

    def test_tuner_speculation_and_elasticity_together(self):
        """All the adaptive machinery enabled at once on a straggling,
        under-provisioned cluster — results must still be exact."""
        from repro.common.config import ElasticConf
        from repro.elastic import ElasticController
        from repro.elastic.policies import UtilizationScalingPolicy

        words = ["a", "b", "c", "d"]
        num_batches = 8
        batches = [
            [words[(b + i) % 4] for i in range(40)] for b in range(num_batches)
        ]
        expected = {}
        for batch in batches:
            for w in batch:
                expected[w] = expected.get(w, 0) + 1

        conf = EngineConf(
            num_workers=3,
            slots_per_worker=2,
            scheduling_mode=SchedulingMode.DRIZZLE,
            group_size=2,
            tuner=TunerConf(enabled=True, max_group_size=4),
            speculation=SpeculationConf(
                enabled=True, check_interval_s=0.02, min_runtime_s=0.05
            ),
        )
        with LocalCluster(conf) as cluster:
            cluster.workers["worker-1"].compute_delay_per_task_s = 0.3  # straggler
            ctx = StreamingContext(cluster, FixedBatchSource(batches, 4), 0.05)
            controller = ElasticController(
                cluster,
                UtilizationScalingPolicy(batch_interval_s=0.05),
                conf=ElasticConf(cooldown_groups=0, max_workers=5),
            )
            ctx.set_elasticity(controller)
            store = ctx.state_store("counts")
            ctx.stream().map(lambda w: (w, 1)).reduce_by_key(
                lambda a, b: a + b, 3
            ).update_state(store, merge=lambda a, b: a + b)
            ctx.run_batches(num_batches)
            assert dict(store.items()) == expected

    def test_crash_during_every_group(self):
        """Sequential crashes across groups: kill a machine in each of the
        first two groups (adding replacements in between)."""
        words = ["x", "y"]
        num_batches = 6
        batches = [[words[i % 2] for i in range(20)] for _b in range(num_batches)]
        conf = EngineConf(
            num_workers=4,
            slots_per_worker=1,
            scheduling_mode=SchedulingMode.DRIZZLE,
            group_size=2,
        )
        with LocalCluster(conf) as cluster:
            ctx = StreamingContext(cluster, FixedBatchSource(batches, 4), 0.05)
            store = ctx.state_store("counts")
            ctx.stream().map(lambda w: (w, 1)).reduce_by_key(
                lambda a, b: a + b, 2
            ).update_state(store, merge=lambda a, b: a + b)

            ctx.run_batches(2)
            cluster.kill_worker("worker-0")
            cluster.add_worker()
            ctx.run_batches(2)
            cluster.kill_worker("worker-1")
            ctx.run_batches(2)
            assert dict(store.items()) == {"x": 60, "y": 60}

    def test_spark_vs_drizzle_full_agreement_on_yahoo(self):
        """The two control planes end to end on identical input."""
        workload = YahooWorkload(num_campaigns=5, seed=9)
        events = workload.generate(600, 30.0)
        batches = time_ordered_batches(events, 3)
        results = {}
        for mode in (SchedulingMode.PER_BATCH, SchedulingMode.DRIZZLE):
            conf = EngineConf(
                num_workers=3, scheduling_mode=mode, group_size=3
            )
            with LocalCluster(conf) as cluster:
                ctx = StreamingContext(cluster, FixedBatchSource(batches, 4), 0.05)
                store = ctx.state_store("w")
                sink = IdempotentSink()
                attach_microbatch_query(ctx, workload, store, sink, optimized=True)
                ctx.run_batches(3)
                results[mode] = dict(store.items())
        assert results[SchedulingMode.PER_BATCH] == results[SchedulingMode.DRIZZLE]
        assert results[SchedulingMode.DRIZZLE] == workload.expected_counts(events, 10.0)

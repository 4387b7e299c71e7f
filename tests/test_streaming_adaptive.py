"""Tests for the adaptive streaming features: sliding windows, cross-batch
re-optimization (§3.5), and elastic scaling policies (§3.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import ElasticConf, EngineConf, SchedulingMode
from repro.common.errors import StreamingError
from repro.elastic import ElasticController
from repro.elastic.policies import ScalingDecision, UtilizationScalingPolicy
from repro.engine.cluster import LocalCluster
from repro.streaming.context import BatchStats, StreamingContext
from repro.streaming.reoptimizer import (
    ReducerCountOptimizer,
    adaptive_reduce_by_key,
    attach_adaptive_output,
)
from repro.streaming.sinks import IdempotentSink
from repro.streaming.sliding import SlidingWindowAggregator, attach_sliding_window
from repro.streaming.sources import FixedBatchSource
from repro.streaming.state import StateStore


def make_fixed_ctx(batches, group_size=2, workers=2):
    conf = EngineConf(
        num_workers=workers,
        slots_per_worker=2,
        scheduling_mode=SchedulingMode.DRIZZLE,
        group_size=group_size,
    )
    cluster = LocalCluster(conf)
    ctx = StreamingContext(cluster, FixedBatchSource(batches, 4), 0.05)
    return cluster, ctx


class TestSlidingWindowAggregator:
    def test_window_of_one_is_identity(self):
        agg = SlidingWindowAggregator(StateStore("w"), 1, 1, lambda a, b: a + b)
        assert agg.on_batch(0, [("k", 2)]) == [("k", 2)]
        assert agg.on_batch(1, [("k", 5)]) == [("k", 5)]

    def test_window_merges_last_n_batches(self):
        agg = SlidingWindowAggregator(StateStore("w"), 3, 1, lambda a, b: a + b)
        agg.on_batch(0, [("k", 1)])
        agg.on_batch(1, [("k", 2)])
        assert agg.on_batch(2, [("k", 4)]) == [("k", 7)]
        # Batch 0 falls out of the window at batch 3.
        assert agg.on_batch(3, [("k", 8)]) == [("k", 14)]

    def test_slide_gates_emission(self):
        agg = SlidingWindowAggregator(StateStore("w"), 4, 2, lambda a, b: a + b)
        assert agg.on_batch(0, [("k", 1)]) is None
        assert agg.on_batch(1, [("k", 1)]) == [("k", 2)]
        assert agg.on_batch(2, [("k", 1)]) is None
        assert agg.on_batch(3, [("k", 1)]) == [("k", 4)]

    def test_replayed_batch_replaces_not_doubles(self):
        store = StateStore("w")
        agg = SlidingWindowAggregator(store, 3, 1, lambda a, b: a + b)
        agg.on_batch(0, [("k", 1)])
        agg.on_batch(1, [("k", 2)])
        # Replay of batch 1 (after recovery) must not double-count.
        assert agg.on_batch(1, [("k", 2)]) == [("k", 3)]

    def test_multiple_keys(self):
        agg = SlidingWindowAggregator(StateStore("w"), 2, 1, lambda a, b: a + b)
        agg.on_batch(0, [("a", 1), ("b", 10)])
        out = agg.on_batch(1, [("a", 2)])
        assert out == [("a", 3), ("b", 10)]

    def test_validation(self):
        store = StateStore("w")
        with pytest.raises(StreamingError):
            SlidingWindowAggregator(store, 0, 1, lambda a, b: a)
        with pytest.raises(StreamingError):
            SlidingWindowAggregator(store, 2, 3, lambda a, b: a)
        with pytest.raises(StreamingError):
            SlidingWindowAggregator(store, 2, 0, lambda a, b: a)

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=20),
           st.integers(1, 5))
    def test_window_sum_matches_direct(self, values, window):
        """Sliding sum over any input equals the direct computation."""
        agg = SlidingWindowAggregator(StateStore("w"), window, 1, lambda a, b: a + b)
        for b, v in enumerate(values):
            out = dict(agg.on_batch(b, [("k", v)]) or [])
            expected = sum(values[max(0, b - window + 1) : b + 1])
            assert out.get("k", 0) == expected


class TestSlidingWindowOnEngine:
    def test_end_to_end(self):
        batches = [[("k", 1)] * (b + 1) for b in range(6)]  # batch b has b+1 records
        cluster, ctx = make_fixed_ctx(
            [[w for w in batch] for batch in batches], group_size=3
        )
        with cluster:
            sink = IdempotentSink()
            store = ctx.state_store("sliding")
            keyed = ctx.stream().reduce_by_key(lambda a, b: a + b, 2)
            attach_sliding_window(
                keyed, store, window=3, slide=1, merge=lambda a, b: a + b, sink=sink
            )
            ctx.run_batches(6)
            # Window ending at batch 5 sums batches 3,4,5 = 4+5+6 = 15.
            assert dict(sink.records_for(5)) == {"k": 15}
            assert dict(sink.records_for(2)) == {"k": 1 + 2 + 3}


class TestReducerCountOptimizer:
    def test_scales_with_cardinality(self):
        opt = ReducerCountOptimizer(target_records_per_reducer=100,
                                    initial_reducers=4, max_reducers=32)
        for b in range(10):
            opt.observe(b, 1600)
        assert opt.current_reducers == 16

    def test_shrinks_when_small(self):
        opt = ReducerCountOptimizer(target_records_per_reducer=100,
                                    initial_reducers=16, max_reducers=32)
        for b in range(10):
            opt.observe(b, 50)
        assert opt.current_reducers == 1

    def test_bounds_respected(self):
        opt = ReducerCountOptimizer(target_records_per_reducer=10,
                                    min_reducers=2, max_reducers=8,
                                    initial_reducers=4)
        for b in range(10):
            opt.observe(b, 10_000)
        assert opt.current_reducers == 8
        for b in range(10, 40):
            opt.observe(b, 0)
        assert opt.current_reducers == 2

    def test_validation(self):
        with pytest.raises(StreamingError):
            ReducerCountOptimizer(target_records_per_reducer=0)
        with pytest.raises(StreamingError):
            ReducerCountOptimizer(min_reducers=10, initial_reducers=5)
        opt = ReducerCountOptimizer()
        with pytest.raises(StreamingError):
            opt.observe(0, -1)

    def test_history_recorded(self):
        opt = ReducerCountOptimizer()
        opt.observe(0, 100)
        opt.observe(1, 200)
        assert len(opt.history) == 2
        assert opt.history[0].batch_index == 0


class TestAdaptiveReduceOnEngine:
    def test_plan_parallelism_follows_optimizer(self):
        """Reducer count changes take effect at group boundaries: the
        first group plans with the initial parallelism; after observing
        high cardinality, the next group plans with more reducers —
        results stay identical."""
        num_batches = 4
        batches = [[(f"k{i}", 1) for i in range(400)] for _b in range(num_batches)]
        cluster, ctx = make_fixed_ctx(batches, group_size=2)
        with cluster:
            opt = ReducerCountOptimizer(
                target_records_per_reducer=100, initial_reducers=1, max_reducers=8
            )
            adapted = adaptive_reduce_by_key(
                ctx.stream(), lambda a, b: a + b, optimizer=opt
            )
            outputs = {}
            attach_adaptive_output(
                adapted, opt, lambda b, records: outputs.update({b: dict(records)})
            )
            ctx.run_batches(num_batches)
            assert opt.current_reducers == 4  # 400 keys / 100 target
            assert all(
                outputs[b] == {f"k{i}": 1 for i in range(400)}
                for b in range(num_batches)
            )
            # The later groups' reduce stages used the adapted parallelism:
            # verify via the observer history (first batches observed with
            # initial plan, later recommendation rose).
            assert opt.history[0].previous_reducers == 1
            assert opt.history[-1].new_reducers == 4


class TestUtilizationScalingPolicy:
    def _stats(self, wall, n=6, interval=0.1):
        return [
            BatchStats(batch_index=i, group_id=0, group_size=n,
                       wall_time_s=wall, completed_at=0.0)
            for i in range(n)
        ]

    def test_scale_up_when_hot(self):
        policy = UtilizationScalingPolicy(batch_interval_s=0.1)
        decision = policy.decide(self._stats(0.095), current_workers=4)
        assert decision.delta_workers == 1

    def test_scale_down_when_idle(self):
        policy = UtilizationScalingPolicy(batch_interval_s=0.1)
        decision = policy.decide(self._stats(0.01), current_workers=4)
        assert decision.delta_workers == -1

    def test_hold_in_band(self):
        policy = UtilizationScalingPolicy(batch_interval_s=0.1)
        decision = policy.decide(self._stats(0.05), current_workers=4)
        assert decision.delta_workers == 0

    def test_respects_min_max(self):
        policy = UtilizationScalingPolicy(batch_interval_s=0.1, min_workers=4,
                                          max_workers=4)
        assert policy.decide(self._stats(0.095), 4).delta_workers == 0
        assert policy.decide(self._stats(0.01), 4).delta_workers == 0

    def test_no_data_holds(self):
        policy = UtilizationScalingPolicy(batch_interval_s=0.1)
        assert policy.decide([], 4).delta_workers == 0

    def test_validation(self):
        with pytest.raises(StreamingError):
            UtilizationScalingPolicy(batch_interval_s=0)
        with pytest.raises(StreamingError):
            UtilizationScalingPolicy(batch_interval_s=0.1, scale_up_threshold=0.2,
                                     scale_down_threshold=0.5)
        with pytest.raises(StreamingError):
            UtilizationScalingPolicy(batch_interval_s=0.1, lookback_batches=0)


class TestElasticityOnEngine:
    def test_controller_adds_worker_at_group_boundary(self):
        batches = [[f"w{i}" for i in range(20)] for _b in range(6)]
        cluster, ctx = make_fixed_ctx(batches, group_size=2, workers=2)
        with cluster:
            # A policy that always wants one more machine.
            class AlwaysUp(UtilizationScalingPolicy):
                def decide(self, recent, current_workers):
                    return ScalingDecision(+1, "test")

            # No cooldown: one resize at every boundary.
            controller = ElasticController(
                cluster,
                AlwaysUp(batch_interval_s=0.05),
                conf=ElasticConf(cooldown_groups=0),
            )
            ctx.set_elasticity(controller)
            ctx.stream().foreach_batch(lambda b, r: None)
            before = len(cluster.alive_workers())
            ctx.run_batches(6)  # 3 group boundaries
            after = len(cluster.alive_workers())
            assert after == before + 3
            assert len(controller.decisions) == 3

    def test_scale_down_drains_gracefully(self):
        batches = [[f"w{i}" for i in range(4)] for _b in range(4)]
        cluster, ctx = make_fixed_ctx(batches, group_size=2, workers=3)
        with cluster:
            policy = UtilizationScalingPolicy(
                batch_interval_s=10.0, min_workers=1  # everything looks idle
            )
            controller = ElasticController(cluster, policy, conf=ElasticConf())
            ctx.set_elasticity(controller)
            seen = []
            ctx.stream().foreach_batch(lambda b, r: seen.append(len(r)))
            ctx.run_batches(4)
            # Workers drained from placement but results stay correct.
            assert seen == [4, 4, 4, 4]
            assert len(cluster.driver.placement_workers()) < 3

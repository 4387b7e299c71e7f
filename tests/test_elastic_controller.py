"""The elastic controller end to end: a streaming job that resizes at
group boundaries must produce results byte-identical to a fixed-size run,
with zero extra RPCs on every non-resize boundary, and a resize itself
moves no state."""

import pytest

from repro.chaos.injector import ChaosInjector, install, uninstall
from repro.chaos.plan import (
    KIND_WORKER_KILL,
    SITE_ELASTIC_RESIZE,
    FaultEvent,
    FaultPlan,
)
from repro.common.config import ElasticConf, EngineConf, TelemetryConf
from repro.common.errors import ConfigError
from repro.common.metrics import (
    COUNT_ELASTIC_DECISIONS,
    COUNT_ELASTIC_RESIZES,
    COUNT_ELASTIC_WORKERS_ADDED,
    COUNT_ELASTIC_WORKERS_REMOVED,
    COUNT_RPC_MESSAGES,
)
from repro.core.groups import GroupObservation
from repro.elastic.controller import ElasticController
from repro.elastic.policies import ScheduleScalingPolicy, SignalScalingPolicy
from repro.engine.cluster import LocalCluster
from repro.streaming.context import StreamingContext
from repro.streaming.sources import FixedBatchSource
from repro.streaming.state import StateStore

WORDS = "the quick brown fox jumps over the lazy dog again and again".split()
BATCHES = [[WORDS[(i + j) % len(WORDS)] for j in range(6)] for i in range(12)]
# The load spike: batches 4..7 carry triple traffic.
for i in range(4, 8):
    BATCHES[i] = BATCHES[i] * 3


def _run(schedule, *, shards_per_worker=2, elastic=True, num_workers=2):
    """Streaming wordcount over BATCHES; returns (final counts, metrics
    snapshot, controller or None)."""
    conf = EngineConf(
        num_workers=num_workers,
        group_size=2,
        elastic=ElasticConf(enabled=False, shards_per_worker=shards_per_worker),
        telemetry=TelemetryConf(enabled=True),
    )
    with LocalCluster(conf) as cluster:
        source = FixedBatchSource(BATCHES, 4)
        ctx = StreamingContext(cluster, source, batch_interval_s=0.05)
        controller = None
        if elastic:
            controller = ElasticController(
                cluster,
                policy=ScheduleScalingPolicy(schedule),
                batch_interval_s=0.05,
            )
            ctx.set_elasticity(controller)
            store = ctx.state_store("counts")
            partitioner = ctx.shard_partitioner("counts")
        else:
            store = ctx.state_store("counts")
            partitioner = None
        stream = (
            ctx.stream()
            .map(lambda w: (w, 1))
            # 4 partitions == 2 workers x 2 shards: the sharded and the
            # fixed plan have identical task structure, so rpc parity is
            # exact, not approximate.
            .reduce_by_key(lambda a, b: a + b, 4, partitioner=partitioner)
        )
        stream.update_state(store, merge=lambda a, b: a + b)
        ctx.run_batches(len(BATCHES))
        counts = sorted(store.items())
        snap = cluster.metrics.counters_snapshot()
        rollup = cluster.telemetry.rollup() if cluster.telemetry else {}
    return counts, snap, controller, rollup


class TestLoadSpikeEquivalence:
    def test_scale_out_and_back_is_byte_identical(self):
        fixed, _, _, _ = _run({}, elastic=False)
        elastic, snap, controller, rollup = _run({1: +2, 4: -2})
        assert elastic == fixed
        # The resizes really happened.
        assert snap[COUNT_ELASTIC_RESIZES] == 2
        assert snap[COUNT_ELASTIC_WORKERS_ADDED] == 2
        assert snap[COUNT_ELASTIC_WORKERS_REMOVED] == 2
        deltas = [p.delta for p in controller.plans]
        assert deltas == [+2, -2]

    def test_rpc_parity_without_resizes(self):
        """A controller that never resizes must cost exactly zero RPCs:
        ``count.rpc_messages`` parity with the fixed-size run is +-0."""
        _, fixed_snap, _, _ = _run({}, elastic=False)
        _, elastic_snap, _, _ = _run({}, elastic=True)
        assert (
            elastic_snap[COUNT_RPC_MESSAGES] == fixed_snap[COUNT_RPC_MESSAGES]
        )

    def test_scale_events_surface_in_rollup(self):
        _, _, _, rollup = _run({1: +1, 4: -1})
        events = rollup.get("scale_events") or []
        actions = [e["action"] for e in events]
        assert "scale" in actions  # the controller's decision lines
        assert "join" in actions  # per-worker membership lines
        assert "leave" in actions
        scale_lines = [e for e in events if e["action"] == "scale"]
        assert any(e["reason"].startswith("+1:") for e in scale_lines)
        assert any(e["reason"].startswith("-1:") for e in scale_lines)


class TestControllerGuardrails:
    def test_cooldown_suppresses_consecutive_resizes(self):
        conf = ElasticConf(enabled=True, cooldown_groups=2)
        with LocalCluster(EngineConf(num_workers=2)) as cluster:
            controller = ElasticController(
                cluster,
                policy=ScheduleScalingPolicy({0: +1, 1: +1, 2: +1}),
                conf=conf,
            )
            for _ in range(3):
                controller.at_group_boundary([])
            assert [d.delta_workers for d in controller.decisions] == [1, 0, 0]
            assert "cooldown" in controller.decisions[1].reason
            assert len(controller.plans) == 1
            assert len(cluster.alive_workers()) == 3

    def test_min_max_clamp(self):
        conf = ElasticConf(enabled=True, min_workers=2, max_workers=3, cooldown_groups=0)
        with LocalCluster(EngineConf(num_workers=2)) as cluster:
            controller = ElasticController(
                cluster, policy=ScheduleScalingPolicy({0: +5, 1: -5}), conf=conf
            )
            controller.at_group_boundary([])
            assert len(cluster.driver.placement_workers()) == 3  # clamped to max
            controller.at_group_boundary([])
            assert len(cluster.driver.placement_workers()) == 2  # clamped to min
            # .decisions keeps the policy's raw ask; .plans what was applied.
            assert [d.delta_workers for d in controller.decisions] == [5, -5]
            assert [p.delta for p in controller.plans] == [1, -1]

    def test_crash_shrinks_the_partition_count(self):
        """A crash between boundaries is a membership change like any
        other: the next group's reduce spreads over the survivors."""
        conf = ElasticConf(enabled=True, shards_per_worker=3)
        with LocalCluster(EngineConf(num_workers=3)) as cluster:
            controller = ElasticController(
                cluster, policy=ScheduleScalingPolicy({}), conf=conf
            )
            assert controller.partitioner().num_partitions == 9
            cluster.kill_worker("worker-2", notify_driver=True)
            decision = controller.at_group_boundary([])
            assert decision.delta_workers == 0
            placement = cluster.driver.placement_workers()
            assert "worker-2" not in placement
            assert controller.partitioner().num_partitions == len(placement) * 3 == 6


class TestResizeMovesNothing:
    def test_scale_out_sends_no_counted_messages(self):
        """A resize is a membership change plus a new partition count:
        with a non-empty state store, scaling out by one costs zero
        counted RPCs."""
        conf = EngineConf(num_workers=2, group_size=2)
        with LocalCluster(conf) as cluster:
            ctx = StreamingContext(
                cluster, FixedBatchSource(BATCHES, 4), batch_interval_s=0.05
            )
            store = ctx.state_store("counts")
            (
                ctx.stream()
                .map(lambda w: (w, 1))
                .reduce_by_key(
                    lambda a, b: a + b, 4, partitioner=ctx.shard_partitioner("counts")
                )
                .update_state(store, merge=lambda a, b: a + b)
            )
            ctx.run_batches(4)
            assert len(store) > 0
            controller = ElasticController(
                cluster,
                policy=ScheduleScalingPolicy({0: +1}),
                conf=ElasticConf(enabled=True, shards_per_worker=2),
            )
            ctx.set_elasticity(controller)
            before = cluster.metrics.counters_snapshot()[COUNT_RPC_MESSAGES]
            controller.at_group_boundary(ctx.recent_groups)
            after = cluster.metrics.counters_snapshot()[COUNT_RPC_MESSAGES]
            assert [p.delta for p in controller.plans] == [+1]
            assert after == before
            assert controller.partitioner().num_partitions == 6

    @pytest.mark.parametrize(
        "schedule,num_workers", [({0: +1}, 2), ({0: -1}, 3)], ids=["out", "in"]
    )
    def test_worker_killed_at_resize_keeps_counts_exact(self, schedule, num_workers):
        """The elastic chaos profile's signature fault, with groups still
        to run: a resize at boundary 0, then the newest joiner (scale-out)
        or the highest-numbered survivor (scale-in) dies before the next
        group.  The counts match the fixed-size run exactly."""
        fixed, _, _, _ = _run({}, elastic=False)
        plan = FaultPlan(
            [FaultEvent(0, SITE_ELASTIC_RESIZE, KIND_WORKER_KILL, 1)],
            profile="elastic",
        )
        injector = ChaosInjector(plan, kill_budget=1)
        install(injector)
        try:
            counts, snap, controller, _ = _run(schedule, num_workers=num_workers)
        finally:
            uninstall(injector)
        assert counts == fixed
        assert injector.injected_count == 1
        assert snap[COUNT_ELASTIC_RESIZES] == 1
        victim = injector.records[0]["target"]
        assert victim == ("worker-2" if schedule[0] > 0 else "worker-1")


def observed(signals):
    """One in-band group (utilization 0.5 at a 0.1 s interval) carrying
    ``signals``."""
    return [
        GroupObservation(
            first_batch=0,
            batches=1,
            scheduling_s=0.0,
            task_transfer_s=0.0,
            wall_s=0.05,
            workers=2,
            signals=signals,
        )
    ]


class TestSignalPolicy:
    def test_queueing_delay_is_the_leading_indicator(self):
        policy = SignalScalingPolicy(batch_interval_s=0.1, queue_delay_p99_ms=50.0)
        d = policy.decide(
            observed({"queueing_delay_ms": {"p99": 120.0}}), current_workers=2
        )
        assert d.delta_workers == +1 and "queueing delay" in d.reason

    def test_backlog_scales_out(self):
        policy = SignalScalingPolicy(batch_interval_s=0.1, backlog_threshold=3)
        d = policy.decide(observed({"backlog": 7}), current_workers=2)
        assert d.delta_workers == +1 and "backlog" in d.reason

    def test_healthy_signals_fall_back_to_utilization(self):
        policy = SignalScalingPolicy(batch_interval_s=0.1)
        d = policy.decide(
            observed({"queueing_delay_ms": {"p99": 1.0}, "backlog": 0}),
            current_workers=2,
        )
        assert d.delta_workers == 0

    def test_default_policy_reads_the_signals_on_the_newest_group(self):
        """A controller given no policy decides with a SignalScalingPolicy
        from the signals the context put on the newest observation."""
        with LocalCluster(EngineConf(num_workers=2)) as cluster:
            controller = ElasticController(
                cluster, conf=ElasticConf(cooldown_groups=0), batch_interval_s=0.1
            )
            assert isinstance(controller.policy, SignalScalingPolicy)
            decision = controller.at_group_boundary(observed({"backlog": 5}))
            assert decision.delta_workers == +1
            assert len(cluster.driver.placement_workers()) == 3

    def test_raising_signals_propagate_out_of_the_batch_loop(self):
        """With a controller attached the context reads ``signals()`` once
        per group, and an error there is the caller's to see; without a
        controller the context does not read it at all."""
        conf = EngineConf(num_workers=2, group_size=2, telemetry=TelemetryConf(enabled=True))
        with LocalCluster(conf) as cluster:
            ctx = StreamingContext(
                cluster, FixedBatchSource(BATCHES, 4), batch_interval_s=0.05
            )
            ctx.stream().foreach_batch(lambda b, r: None)

            def broken_signals(window_s=None):
                raise RuntimeError("signals unavailable")

            cluster.telemetry.signals = broken_signals
            ctx.run_batches(2)
            ctx.set_elasticity(
                ElasticController(cluster, ScheduleScalingPolicy({}), batch_interval_s=0.05)
            )
            with pytest.raises(RuntimeError, match="signals unavailable"):
                ctx.run_batches(2)
            assert cluster.metrics.counters_snapshot().get(COUNT_ELASTIC_DECISIONS, 0) == 0


class TestConfAndCompat:
    def test_elastic_conf_validation(self):
        for bad in (
            ElasticConf(min_workers=0),
            ElasticConf(min_workers=4, max_workers=2),
            ElasticConf(cooldown_groups=-1),
            ElasticConf(shards_per_worker=0),
        ):
            with pytest.raises(ConfigError):
                bad.validate()

    def test_auto_attach_via_conf(self):
        conf = EngineConf(
            num_workers=2, elastic=ElasticConf(enabled=True, shards_per_worker=2)
        )
        with LocalCluster(conf) as cluster:
            ctx = StreamingContext(
                cluster, FixedBatchSource([["a"]], 2), batch_interval_s=0.05
            )
            assert isinstance(ctx._elasticity, ElasticController)
            store = ctx.state_store("counts")
            assert isinstance(store, StateStore)
            assert ctx._elasticity.partitioner().num_partitions == 4

#!/usr/bin/env python
"""Live autoscaling at group boundaries (§3.3).

A streaming wordcount rides out a 3x load spike: the elastic controller
scales the cluster out at a group boundary, so the next group's reduce
spreads over more partitions on more machines, and scales back in when
the spike passes.  The final counts are *byte-identical* to a run on a
fixed-size cluster: the state store lives on the driver and merges each
batch's reduce output, so a resize moves no state at all.

    python examples/elastic_scaling.py
"""

from repro.common.config import ElasticConf, EngineConf
from repro.common.metrics import COUNT_ELASTIC_RESIZES
from repro.elastic import ElasticController, ScheduleScalingPolicy
from repro.engine.cluster import LocalCluster
from repro.streaming.context import StreamingContext
from repro.streaming.sources import FixedBatchSource

WORDS = "the quick brown fox jumps over the lazy dog again and again".split()
NUM_BATCHES = 12


def make_batches():
    batches = [
        [WORDS[(i + j) % len(WORDS)] for j in range(6)] for i in range(NUM_BATCHES)
    ]
    for i in range(4, 8):  # the spike: triple traffic mid-stream
        batches[i] = batches[i] * 3
    return batches


def run(schedule):
    """Streaming wordcount; ``schedule`` maps group boundary -> resize."""
    conf = EngineConf(
        num_workers=2,
        group_size=2,
        elastic=ElasticConf(enabled=False, shards_per_worker=2),
    )
    with LocalCluster(conf) as cluster:
        ctx = StreamingContext(cluster, FixedBatchSource(make_batches(), 4), 0.05)
        controller = None
        partitioner = None
        if schedule is not None:
            controller = ElasticController(
                cluster, policy=ScheduleScalingPolicy(schedule), batch_interval_s=0.05
            )
            ctx.set_elasticity(controller)
            # The provider re-resolves the partition count every batch,
            # so post-resize groups spread over the new worker set.
            partitioner = ctx.shard_partitioner("counts")
        store = ctx.state_store("counts")
        (
            ctx.stream()
            .map(lambda w: (w, 1))
            .reduce_by_key(lambda a, b: a + b, 4, partitioner=partitioner)
            .update_state(store, merge=lambda a, b: a + b)
        )
        ctx.run_batches(NUM_BATCHES)
        counts = sorted(store.items())
        snap = cluster.metrics.counters_snapshot()
        # Drained machines linger as processes but receive no placements.
        sizes = len(cluster.driver.placement_workers())
    return counts, snap, controller, sizes


def main() -> None:
    fixed, _, _, _ = run(None)

    # Scale out by 2 when the spike lands, back in when it passes.
    elastic, snap, controller, final_size = run({1: +2, 4: -2})

    print("resize plans applied at group boundaries:")
    for plan in controller.plans:
        what = ", ".join(plan.added) if plan.added else ", ".join(plan.removed)
        print(f"  delta={plan.delta:+d} [{what}] ({plan.reason})")
    print(f"resizes applied: {int(snap[COUNT_ELASTIC_RESIZES])} (no state moved)")
    print("final cluster size:", final_size)
    print("counts identical to fixed-size run:", elastic == fixed)


if __name__ == "__main__":
    main()

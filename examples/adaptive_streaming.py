#!/usr/bin/env python
"""Adaptive streaming: the §3.3/§3.5 adaptation machinery working together.

* **Sliding windows** — reduceByKeyAndWindow-style aggregation over the
  last N micro-batches;
* **Cross-batch re-optimization** (§3.5) — per-batch cardinality metrics
  feed a reducer-count optimizer whose recommendation takes effect at the
  next group boundary;
* **Elastic scaling** (§3.3) — a utilization policy adds machines when
  batches run hot and drains them when idle, applied only between groups.

    python examples/adaptive_streaming.py
"""

from repro.common.config import ElasticConf, EngineConf, SchedulingMode
from repro.elastic import ElasticController
from repro.elastic.policies import UtilizationScalingPolicy
from repro.engine.cluster import LocalCluster
from repro.streaming.context import StreamingContext
from repro.streaming.reoptimizer import (
    ReducerCountOptimizer,
    adaptive_reduce_by_key,
    attach_adaptive_output,
)
from repro.streaming.sinks import IdempotentSink
from repro.streaming.sliding import attach_sliding_window
from repro.streaming.sources import FixedBatchSource

NUM_BATCHES = 8


def main() -> None:
    # Batches 0-3 are small (20 keys); batches 4-7 explode to 600 keys —
    # the data-distribution change §3.5 re-optimizes for.
    batches = []
    for b in range(NUM_BATCHES):
        keys = 20 if b < 4 else 600
        batches.append([(f"key-{i}", 1) for i in range(keys)])

    conf = EngineConf(
        num_workers=2,
        slots_per_worker=2,
        scheduling_mode=SchedulingMode.DRIZZLE,
        group_size=2,
    )
    with LocalCluster(conf) as cluster:
        ctx = StreamingContext(cluster, FixedBatchSource(batches, 4), 0.05)

        # --- adaptive keyed reduction (§3.5) ---------------------------
        optimizer = ReducerCountOptimizer(
            target_records_per_reducer=100, initial_reducers=1, max_reducers=8
        )
        adapted = adaptive_reduce_by_key(ctx.stream(), lambda a, b: a + b, optimizer)
        cardinalities = {}
        attach_adaptive_output(
            adapted, optimizer,
            lambda b, records: cardinalities.update({b: len(records)}),
        )

        # --- sliding window over the last 3 batches --------------------
        window_sink = IdempotentSink()
        window_store = ctx.state_store("sliding")
        attach_sliding_window(
            ctx.stream().reduce_by_key(lambda a, b: a + b, 2),
            window_store, window=3, slide=1,
            merge=lambda a, b: a + b, sink=window_sink,
        )

        # --- elastic scaling (§3.3) -------------------------------------
        controller = ElasticController(
            cluster,
            UtilizationScalingPolicy(
                batch_interval_s=0.05,
                scale_up_threshold=0.8,
                scale_down_threshold=0.05,
            ),
            conf=ElasticConf(cooldown_groups=0, min_workers=2, max_workers=6),
        )
        ctx.set_elasticity(controller)

        ctx.run_batches(NUM_BATCHES)

        print("per-batch output cardinality:", cardinalities)
        print("reducer recommendations over time:",
              [d.new_reducers for d in optimizer.history])
        print(f"final reducer count: {optimizer.current_reducers} "
              f"(started at 1; data grew 30x mid-stream)")

        last_window = dict(window_sink.records_for(NUM_BATCHES - 1))
        print(f"\nsliding window over batches 5-7: {len(last_window)} keys, "
              f"total count {sum(last_window.values())}")

        print("\nelasticity decisions at group boundaries:")
        for i, d in enumerate(controller.decisions):
            print(f"  group {i}: delta={d.delta_workers:+d} ({d.reason})")
        print("final cluster size:", len(cluster.alive_workers()))


if __name__ == "__main__":
    main()

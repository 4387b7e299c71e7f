#!/usr/bin/env python
"""Automatic group-size tuning (§3.4) live on the real engine.

The AIMD tuner watches the fraction of group wall time spent in
centralized coordination and adjusts the group size: multiplicative
increase when overhead exceeds the upper bound, additive decrease below
the lower bound, with EWMA smoothing against transient spikes.

Here the micro-batches are tiny, so coordination dominates at group size 1
and the tuner grows the group until the overhead falls into its band.
Then we also run the simulator's cluster-resize trace (16 -> 128 -> 16
machines) to show re-convergence after environment changes.

    python examples/group_size_tuning.py
"""

from repro.bench.figures import group_tuning_trace
from repro.bench.reporting import render_table
from repro.common.config import EngineConf, SchedulingMode, TunerConf
from repro.engine.cluster import LocalCluster
from repro.streaming.context import StreamingContext
from repro.streaming.sources import FixedBatchSource


def main() -> None:
    tuner_conf = TunerConf(
        enabled=True,
        overhead_lower_bound=0.001,
        overhead_upper_bound=0.01,
        max_group_size=16,
    )
    conf = EngineConf(
        num_workers=3,
        slots_per_worker=2,
        scheduling_mode=SchedulingMode.DRIZZLE,
        group_size=1,
        tuner=tuner_conf,
    )
    num_batches = 40
    batches = [[f"w{b}-{i}" for i in range(4)] for b in range(num_batches)]
    with LocalCluster(conf) as cluster:
        ctx = StreamingContext(cluster, FixedBatchSource(batches, 4), 0.05)
        ctx.stream().map(lambda w: (w, 1)).reduce_by_key(
            lambda a, b: a + b, 2
        ).foreach_batch(lambda b, records: None)
        ctx.run_batches(num_batches)

        print("group sizes chosen per group (real engine, AIMD):")
        print(" ", [g.batches for g in ctx.recent_groups])
        tuner = cluster.driver.tuner
        assert tuner is not None
        print(f"final group size: {tuner.group_size}")
        print(f"smoothed overhead: {tuner.smoothed_overhead:.4f} "
              f"(bounds [{tuner_conf.overhead_lower_bound}, "
              f"{tuner_conf.overhead_upper_bound}])")
        actions = [d.action for d in tuner.history]
        print(f"tuner actions: increase={actions.count('increase')} "
              f"decrease={actions.count('decrease')} hold={actions.count('hold')}")

    print("\nsimulated cluster-resize trace (16 -> 128 -> 16 machines):")
    rows = group_tuning_trace()
    sampled = [rows[i] for i in (0, 20, 79, 90, 120, 159, 170, 200, 239)]
    print(
        render_table(
            ["step", "machines", "group_size", "smoothed_overhead", "action"],
            [[r["step"], r["machines"], r["group_size"], r["overhead"], r["action"]]
             for r in sampled],
        )
    )


if __name__ == "__main__":
    main()

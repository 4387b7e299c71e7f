#!/usr/bin/env python
"""Batch analytics on the BSP engine: the substrate under Drizzle.

Exercises the Dataset API directly (no streaming): joins, keyed
aggregation with map-side combining, tree reduction (§3.6), and the
Table 2 workload analysis over a synthetic SQL corpus.

    python examples/batch_analytics.py
"""

from repro.bench.reporting import render_table
from repro.common.config import EngineConf, SchedulingMode
from repro.dag.dataset import parallelize
from repro.dag.plan import compile_plan, count_action, reduce_action
from repro.engine.cluster import LocalCluster
from repro.workloads.queries import QueryCorpusGenerator, WorkloadAnalyzer, TABLE2_DISTRIBUTION


def main() -> None:
    conf = EngineConf(
        num_workers=4, slots_per_worker=2, scheduling_mode=SchedulingMode.DRIZZLE
    )
    with LocalCluster(conf) as cluster:
        # -- keyed aggregation with map-side combining ------------------
        orders = parallelize(
            [(f"user-{i % 50}", (i * 7) % 100) for i in range(10_000)], 8
        )
        spend = orders.reduce_by_key(lambda a, b: a + b, 4)
        totals = dict(cluster.collect(spend))
        print(f"aggregated spend for {len(totals)} users "
              f"(max: {max(totals.values())})")

        # -- join against a dimension table ------------------------------
        users = parallelize(
            [(f"user-{i}", "gold" if i % 10 == 0 else "basic") for i in range(50)], 4
        )
        joined = spend.join(users, 4)
        gold_spend = (
            joined.filter(lambda kv: kv[1][1] == "gold")
            .map(lambda kv: kv[1][0])
        )
        plan = compile_plan(gold_spend, reduce_action(lambda a, b: a + b))
        print(f"total gold-tier spend: {cluster.run_plan(plan)}")

        # -- tree reduction (§3.6 pre-scheduling structure) ---------------
        big = parallelize(range(100_000), 16).map(lambda x: x * x)
        tree = big.tree_reduce_stage(lambda a, b: a + b, fan_in=4).tree_reduce_stage(
            lambda a, b: a + b, fan_in=4
        )
        total = sum(cluster.collect(tree))
        assert total == sum(x * x for x in range(100_000))
        print(f"tree-reduced sum of squares: {total}")

        # -- count action -------------------------------------------------
        evens = parallelize(range(100_000), 16).filter(lambda x: x % 2 == 0)
        print(f"evens: {cluster.run_plan(compile_plan(evens, count_action()))}")

    # -- Table 2: workload analysis over a synthetic corpus --------------
    print("\nTable 2 (on 100k synthetic queries):")
    generator = QueryCorpusGenerator(seed=0)
    result = WorkloadAnalyzer().analyze(generator.generate(100_000))
    got = result.category_percentages()
    print(
        render_table(
            ["aggregate", "measured_pct", "paper_pct"],
            [[c, got[c], TABLE2_DISTRIBUTION[c]] for c in TABLE2_DISTRIBUTION],
        )
    )
    print(f"aggregation queries: {result.aggregation_fraction:.1%}; "
          f"partial-merge share: {result.partial_merge_fraction:.1%}")


if __name__ == "__main__":
    main()

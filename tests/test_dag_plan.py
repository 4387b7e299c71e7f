"""Tests for the dataset DAG and the physical planner."""

import pytest

from repro.common.errors import PlanError
from repro.dag.dataset import (
    Dataset,
    from_partitions,
    parallelize,
)
from repro.dag.plan import (
    collect_action,
    compile_plan,
    count_action,
    dict_action,
    foreach_action,
    reduce_action,
)


def run_plan_locally(plan):
    """Single-threaded reference executor for a physical plan — used to
    test planner semantics without involving the engine."""
    shuffle_outputs = {}  # (shuffle_id, map_index) -> {reduce: [..]}
    results = []
    for stage in plan.stages:
        stage_results = []
        for partition in range(stage.num_tasks):
            if stage.source_fn is not None:
                records = iter(stage.source_fn(partition))
            else:
                fetched = []
                for spec in stage.input_shuffles:
                    streams = [
                        shuffle_outputs[(spec.shuffle_id, m)].get(partition, [])
                        for m in spec.map_indices_for_reducer(partition)
                    ]
                    fetched.append(streams)
                records = stage.input_merge(partition, fetched)
            records = stage.pipeline(partition, records)
            if stage.output_shuffle is not None:
                buckets = stage.map_output_fn(partition, records)
                shuffle_outputs[(stage.output_shuffle.shuffle_id, partition)] = buckets
            else:
                stage_results.append(stage.action_fn(partition, records))
        if stage.is_result:
            results = stage_results
    return plan.finalize(results)


class TestPlannerStructure:
    def test_narrow_only_single_stage(self):
        ds = parallelize(range(10), 2).map(lambda x: x + 1).filter(lambda x: x > 3)
        plan = compile_plan(ds, collect_action())
        assert len(plan.stages) == 1
        assert plan.stages[0].num_tasks == 2
        assert plan.num_shuffles == 0

    def test_shuffle_splits_stages(self):
        ds = parallelize(range(10), 4).map(lambda x: (x % 2, x)).reduce_by_key(
            lambda a, b: a + b, 3
        )
        plan = compile_plan(ds, collect_action())
        assert len(plan.stages) == 2
        map_stage, reduce_stage = plan.stages
        assert map_stage.output_shuffle is not None
        assert map_stage.output_shuffle.num_maps == 4
        assert reduce_stage.num_tasks == 3
        assert reduce_stage.input_shuffles[0] is map_stage.output_shuffle
        assert reduce_stage.parents == (0,)

    def test_two_shuffles_three_stages(self):
        ds = (
            parallelize(range(20), 4)
            .map(lambda x: (x % 4, x))
            .reduce_by_key(lambda a, b: a + b, 4)
            .map(lambda kv: (kv[0] % 2, kv[1]))
            .reduce_by_key(lambda a, b: a + b, 2)
        )
        plan = compile_plan(ds, collect_action())
        assert len(plan.stages) == 3
        assert plan.num_shuffles == 2
        # Shuffle ids are distinct.
        sids = {s.output_shuffle.shuffle_id for s in plan.stages if s.output_shuffle}
        assert len(sids) == 2

    def test_join_has_two_parents(self):
        left = parallelize([("a", 1)], 2)
        right = parallelize([("a", 2)], 2)
        plan = compile_plan(left.join(right, 2), collect_action())
        assert len(plan.stages) == 3
        assert len(plan.stages[2].input_shuffles) == 2
        assert plan.stages[2].parents == (0, 1)

    def test_tree_shuffle_structure(self):
        ds = parallelize(range(16), 8).tree_reduce_stage(lambda a, b: a + b, fan_in=2)
        plan = compile_plan(ds, collect_action())
        spec = plan.stages[0].output_shuffle
        assert spec.structure == "tree"
        assert spec.fan_in == 2
        assert spec.num_reducers == 4
        # Reducer 1 depends on maps 2,3 only.
        assert spec.reduce_deps(1) == frozenset({(spec.shuffle_id, 2), (spec.shuffle_id, 3)})

    def test_dependencies_all_to_all_by_default(self):
        ds = parallelize(range(10), 4).map(lambda x: (x, x)).group_by_key(2)
        plan = compile_plan(ds, collect_action())
        reduce_stage = plan.stages[1]
        assert len(reduce_stage.task_dependencies(0)) == 4

    def test_unknown_node_rejected(self):
        class Weird(Dataset):
            pass

        with pytest.raises(PlanError):
            compile_plan(Weird(1), collect_action())

    def test_bad_num_partitions(self):
        with pytest.raises(PlanError):
            parallelize([1], 0)


class TestPlanExecutionSemantics:
    def test_collect(self):
        ds = parallelize(range(10), 3).map(lambda x: x * 2)
        plan = compile_plan(ds, collect_action())
        assert sorted(run_plan_locally(plan)) == [x * 2 for x in range(10)]

    def test_count(self):
        ds = parallelize(range(25), 4).filter(lambda x: x % 2 == 0)
        plan = compile_plan(ds, count_action())
        assert run_plan_locally(plan) == 13

    def test_reduce(self):
        ds = parallelize(range(10), 3)
        plan = compile_plan(ds, reduce_action(lambda a, b: a + b))
        assert run_plan_locally(plan) == 45

    def test_reduce_empty_raises(self):
        ds = parallelize([1], 1).filter(lambda x: False)
        plan = compile_plan(ds, reduce_action(lambda a, b: a + b))
        with pytest.raises(PlanError):
            run_plan_locally(plan)

    def test_dict_action(self):
        ds = parallelize(range(10), 2).map(lambda x: (x % 5, 1)).reduce_by_key(
            lambda a, b: a + b, 2
        )
        plan = compile_plan(ds, dict_action())
        assert run_plan_locally(plan) == {k: 2 for k in range(5)}

    def test_foreach_action(self):
        seen = []
        ds = parallelize(range(6), 2)
        plan = compile_plan(ds, foreach_action(seen.append))
        assert run_plan_locally(plan) == 6
        assert sorted(seen) == list(range(6))

    def test_reduce_by_key_with_and_without_combine_agree(self):
        data = [(f"k{i % 7}", i) for i in range(100)]
        ds = lambda: from_partitions([data[:50], data[50:]]).reduce_by_key(
            lambda a, b: a + b, 3
        )
        with_combine = run_plan_locally(
            compile_plan(ds(), dict_action(), map_side_combine=True)
        )
        without = run_plan_locally(
            compile_plan(ds(), dict_action(), map_side_combine=False)
        )
        assert with_combine == without

    def test_combine_shrinks_map_output(self):
        data = [("k", 1)] * 100
        ds = from_partitions([data]).reduce_by_key(lambda a, b: a + b, 2)
        plan_on = compile_plan(ds, dict_action(), map_side_combine=True)
        plan_off = compile_plan(ds, dict_action(), map_side_combine=False)
        stage_on, stage_off = plan_on.stages[0], plan_off.stages[0]
        buckets_on = stage_on.map_output_fn(0, iter(data))
        buckets_off = stage_off.map_output_fn(0, iter(data))
        assert sum(len(b) for b in buckets_on.values()) == 1
        assert sum(len(b) for b in buckets_off.values()) == 100

    def test_group_by_key(self):
        ds = parallelize(range(9), 3).map(lambda x: (x % 3, x)).group_by_key(2)
        plan = compile_plan(ds, dict_action())
        out = {k: sorted(v) for k, v in run_plan_locally(plan).items()}
        assert out == {0: [0, 3, 6], 1: [1, 4, 7], 2: [2, 5, 8]}

    def test_aggregate_by_key_average(self):
        ds = parallelize(range(10), 2).map(lambda x: (x % 2, float(x))).aggregate_by_key(
            zero=lambda: (0.0, 0),
            seq_op=lambda acc, v: (acc[0] + v, acc[1] + 1),
            comb_op=lambda a, b: (a[0] + b[0], a[1] + b[1]),
            num_partitions=2,
        )
        plan = compile_plan(ds, dict_action())
        out = run_plan_locally(plan)
        assert out[0] == (20.0, 5)
        assert out[1] == (25.0, 5)

    def test_join_inner_semantics(self):
        left = from_partitions([[("a", 1), ("b", 2)], [("a", 3)]])
        right = from_partitions([[("a", 10)], [("c", 30)]])
        plan = compile_plan(left.join(right, 2), collect_action())
        out = sorted(run_plan_locally(plan))
        assert out == [("a", (1, 10)), ("a", (3, 10))]

    def test_tree_reduce_correct(self):
        ds = parallelize(range(32), 8).tree_reduce_stage(lambda a, b: a + b, 2)
        plan = compile_plan(ds, collect_action())
        assert sum(run_plan_locally(plan)) == sum(range(32))

    def test_key_by_and_map_values(self):
        ds = parallelize(range(4), 2).key_by(lambda x: x % 2).map_values(lambda v: v * 10)
        plan = compile_plan(ds, collect_action())
        assert sorted(run_plan_locally(plan)) == [(0, 0), (0, 20), (1, 10), (1, 30)]

    def test_partition_by_identity(self):
        from repro.dag.partitioning import HashPartitioner

        ds = parallelize(range(10), 2).map(lambda x: (x, x)).partition_by(
            HashPartitioner(4)
        )
        plan = compile_plan(ds, collect_action())
        assert sorted(run_plan_locally(plan)) == [(x, x) for x in range(10)]

    def test_flat_map(self):
        ds = parallelize([1, 2], 1).flat_map(lambda x: [x] * x)
        plan = compile_plan(ds, collect_action())
        assert sorted(run_plan_locally(plan)) == [1, 2, 2]

    def test_map_partitions_gets_index(self):
        ds = parallelize(range(4), 2).map_partitions(lambda p, it: [(p, sum(it))])
        plan = compile_plan(ds, collect_action())
        out = dict(run_plan_locally(plan))
        assert set(out) == {0, 1}
        assert out[0] + out[1] == 6

    def test_parallelize_even_split(self):
        ds = parallelize(range(10), 3)
        plan = compile_plan(ds, collect_action())
        assert sorted(run_plan_locally(plan)) == list(range(10))

    def test_from_partitions_rejects_empty(self):
        with pytest.raises(PlanError):
            from_partitions([])

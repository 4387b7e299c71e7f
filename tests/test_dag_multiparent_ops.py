"""Tests for the multi-parent operators: union, cogroup, left_join."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import SchedulingMode
from repro.common.errors import PlanError
from repro.dag.dataset import CoGroupDataset, from_partitions, parallelize
from repro.dag.partitioning import HashPartitioner

from engine_test_utils import ALL_MODES, make_cluster, run_under_hash_seed

_COGROUP_SCRIPT = """
from repro.common.config import EngineConf, SchedulingMode
from repro.dag.dataset import from_partitions
from repro.engine.cluster import LocalCluster

left = from_partitions([[("k%d" % i, i) for i in range(0, 40, 3)],
                        [("k%d" % i, -i) for i in range(0, 40, 5)]])
right = from_partitions([[("k%d" % i, i) for i in range(0, 40, 2)],
                         [("r%d" % i, i) for i in range(9)]])
conf = EngineConf(num_workers=2, slots_per_worker=2,
                  scheduling_mode=SchedulingMode.DRIZZLE)
with LocalCluster(conf) as cluster:
    print(repr(cluster.collect(left.cogroup(right, 2))))
"""


kv_lists = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.integers(-20, 20)),
    max_size=25,
)


class TestUnion:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_union_keeps_duplicates(self, mode):
        with make_cluster(mode) as cluster:
            left = parallelize([1, 2, 2], 2)
            right = parallelize([2, 3], 2)
            out = sorted(cluster.collect(left.union(right, 3)))
            assert out == [1, 2, 2, 2, 3]

    def test_union_with_empty_side(self):
        with make_cluster(SchedulingMode.DRIZZLE) as cluster:
            left = parallelize([1, 2], 2)
            right = from_partitions([[], []])
            assert sorted(cluster.collect(left.union(right))) == [1, 2]

    def test_union_then_reduce(self):
        with make_cluster(SchedulingMode.DRIZZLE) as cluster:
            left = parallelize([("k", 1)] * 3, 2)
            right = parallelize([("k", 10)] * 2, 2)
            ds = left.union(right, 2).reduce_by_key(lambda a, b: a + b, 2)
            assert dict(cluster.collect(ds)) == {"k": 23}

    def test_self_union_doubles(self):
        with make_cluster(SchedulingMode.DRIZZLE) as cluster:
            ds = parallelize([5, 6], 2)
            assert sorted(cluster.collect(ds.union(ds))) == [5, 5, 6, 6]

    @settings(deadline=None, max_examples=12)
    @given(st.lists(st.integers(0, 50), max_size=20),
           st.lists(st.integers(0, 50), max_size=20))
    def test_union_is_bag_union(self, left_data, right_data):
        with make_cluster(SchedulingMode.DRIZZLE, workers=2) as cluster:
            left = parallelize(left_data, 2) if left_data else from_partitions([[]])
            right = parallelize(right_data, 2) if right_data else from_partitions([[]])
            out = sorted(cluster.collect(left.union(right, 2)))
            assert out == sorted(left_data + right_data)


class TestCoGroup:
    def test_cogroup_all_keys_present(self):
        with make_cluster(SchedulingMode.DRIZZLE) as cluster:
            left = from_partitions([[("a", 1), ("b", 2)], [("a", 3)]])
            right = from_partitions([[("b", 10)], [("c", 20)]])
            out = {
                k: (sorted(l), sorted(r))
                for k, (l, r) in cluster.collect(left.cogroup(right, 2))
            }
            assert out == {
                "a": ([1, 3], []),
                "b": ([2], [10]),
                "c": ([], [20]),
            }

    def test_cogroup_order_is_independent_of_hash_seed(self):
        # Compared unsorted: key order must not follow the hash seed.
        first = run_under_hash_seed(_COGROUP_SCRIPT, 1)
        assert first.startswith("[")
        assert first == run_under_hash_seed(_COGROUP_SCRIPT, 2)

    def test_cogroup_yields_left_keys_then_right_only_keys(self):
        with make_cluster(SchedulingMode.DRIZZLE) as cluster:
            left = from_partitions([[("z", 1), ("a", 2), ("m", 3)]])
            right = from_partitions([[("q", 9), ("a", 8), ("b", 7)]])
            out = cluster.collect(left.cogroup(right, 1))
        assert [k for k, _ in out] == ["z", "a", "m", "q", "b"]

    def test_left_join(self):
        with make_cluster(SchedulingMode.DRIZZLE) as cluster:
            left = from_partitions([[("a", 1), ("b", 2)]])
            right = from_partitions([[("a", 9)]])
            out = sorted(cluster.collect(left.left_join(right, 2)))
            assert out == [("a", (1, 9)), ("b", (2, None))]

    def test_inner_join_unchanged(self):
        with make_cluster(SchedulingMode.DRIZZLE) as cluster:
            left = from_partitions([[("a", 1), ("b", 2)]])
            right = from_partitions([[("a", 9)]])
            out = sorted(cluster.collect(left.join(right, 2)))
            assert out == [("a", (1, 9))]

    def test_bad_mode_rejected(self):
        with pytest.raises(PlanError):
            CoGroupDataset(
                parallelize([("a", 1)], 1),
                parallelize([("a", 2)], 1),
                HashPartitioner(2),
                mode="full",
            )

    @settings(deadline=None, max_examples=12)
    @given(kv_lists, kv_lists)
    def test_join_decomposition_property(self, left_data, right_data):
        """inner join == cogroup filtered to co-occurring keys, and
        left_join's left side is exactly the left dataset."""
        with make_cluster(SchedulingMode.DRIZZLE, workers=2) as cluster:
            left = parallelize(left_data, 2) if left_data else from_partitions([[]])
            right = parallelize(right_data, 2) if right_data else from_partitions([[]])
            inner = sorted(cluster.collect(left.join(right, 2)))
            cg = dict(cluster.collect(left.cogroup(right, 2)))
            expected_inner = sorted(
                (k, (lv, rv))
                for k, (lvs, rvs) in cg.items()
                for lv in lvs
                for rv in rvs
            )
            assert inner == expected_inner
            # Left join = inner join plus a (k, (v, None)) row for every
            # left pair whose key has no right match.
            left_out = sorted(cluster.collect(left.left_join(right, 2)))
            right_keys = {k for k, _ in right_data}
            expected_left = sorted(
                inner
                + [(k, (v, None)) for k, v in left_data if k not in right_keys]
            )
            assert left_out == expected_left

    @settings(deadline=None, max_examples=12)
    @given(kv_lists, kv_lists)
    def test_left_join_preserves_left_multiplicity_for_unmatched(self, ld, rd):
        with make_cluster(SchedulingMode.DRIZZLE, workers=2) as cluster:
            left = parallelize(ld, 2) if ld else from_partitions([[]])
            right = parallelize(rd, 2) if rd else from_partitions([[]])
            out = cluster.collect(left.left_join(right, 2))
            right_keys = {k for k, _ in rd}
            unmatched_out = sorted((k, v) for k, (v, r) in out if r is None)
            unmatched_in = sorted((k, v) for k, v in ld if k not in right_keys)
            assert unmatched_out == unmatched_in

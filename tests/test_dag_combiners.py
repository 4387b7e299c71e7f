"""Tests for map-side combining (§3.5)."""

import operator
import pickle
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.dag.combiners import (
    Aggregator,
    combine_locally,
    group_values_iter,
    merge_combiners_iter,
    reduce_values_iter,
)
from repro.dag.partitioning import HashPartitioner
from repro.dag.plan import ShuffleSpec, _make_hash_map_output

pairs = st.lists(
    st.tuples(st.integers(0, 10), st.integers(-100, 100)), max_size=60
)


def sum_agg() -> Aggregator:
    return Aggregator.from_reduce(lambda a, b: a + b)


class TestAggregatorConstruction:
    def test_from_reduce(self):
        agg = sum_agg()
        assert agg.create_combiner(5) == 5
        assert agg.merge_value(5, 3) == 8
        assert agg.merge_combiners(5, 3) == 8

    def test_from_zero(self):
        # average via (sum, count)
        agg = Aggregator.from_zero(
            zero=lambda: (0, 0),
            seq_op=lambda acc, v: (acc[0] + v, acc[1] + 1),
            comb_op=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        c = agg.create_combiner(10)
        assert c == (10, 1)
        c = agg.merge_value(c, 20)
        assert c == (30, 2)
        assert agg.merge_combiners((30, 2), (5, 1)) == (35, 3)


class TestCombineLocally:
    def test_basic(self):
        out = combine_locally([("a", 1), ("b", 2), ("a", 3)], sum_agg())
        assert out == {"a": 4, "b": 2}

    def test_empty(self):
        assert combine_locally([], sum_agg()) == {}

    @given(pairs)
    def test_matches_counter_semantics(self, data):
        expected = Counter()
        for k, v in data:
            expected[k] += v
        assert combine_locally(data, sum_agg()) == dict(expected)


class TestReduceSideMerges:
    @given(st.lists(pairs, max_size=5))
    def test_combined_equals_uncombined(self, streams):
        """THE §3.5 invariant: map-side combining must not change results.
        Merging pre-combined streams == reducing raw streams directly."""
        agg = sum_agg()
        combined_streams = [list(combine_locally(s, agg).items()) for s in streams]
        via_combiners = dict(merge_combiners_iter(combined_streams, agg))
        via_raw = dict(reduce_values_iter(streams, agg))
        assert via_combiners == via_raw

    def test_merge_combiners(self):
        streams = [[("a", 3)], [("a", 4), ("b", 1)]]
        assert dict(merge_combiners_iter(streams, sum_agg())) == {"a": 7, "b": 1}

    def test_reduce_values(self):
        streams = [[("a", 1), ("a", 1)], [("a", 1)]]
        assert dict(reduce_values_iter(streams, sum_agg())) == {"a": 3}

    def test_group_values(self):
        streams = [[("a", 1), ("b", 2)], [("a", 3)]]
        grouped = dict(group_values_iter(streams))
        assert grouped == {"a": [1, 3], "b": [2]}

    @given(st.lists(pairs, max_size=4))
    def test_group_preserves_all_values(self, streams):
        grouped = dict(group_values_iter(streams))
        total = sum(len(vs) for vs in grouped.values())
        assert total == sum(len(s) for s in streams)


class TestCombiningShrinksShuffle:
    @given(pairs)
    def test_combined_never_larger(self, data):
        """The optimization's point: per-key combiners are never more
        records than the raw stream."""
        combined = combine_locally(data, sum_agg())
        assert len(combined) <= max(len(data), 1)

    def test_shrink_example(self):
        data = [("k", 1)] * 1000
        assert len(combine_locally(data, sum_agg())) == 1


class CountingPartitioner(HashPartitioner):
    def __init__(self, num_partitions: int):
        super().__init__(num_partitions)
        self.calls = 0

    def partition(self, key):
        self.calls += 1
        return super().partition(key)


def list_agg() -> Aggregator:
    return Aggregator.from_zero(list, lambda acc, v: acc + [v], operator.add)


def map_output(partitioner, agg, combine, records):
    spec = ShuffleSpec(shuffle_id=0, num_maps=1, partitioner=partitioner)
    return _make_hash_map_output(spec, agg, combine)(0, iter(records))


def partition_then_combine(partitioner, agg, records):
    """The reference: route every record, then combine each bucket."""
    by_bucket = {}
    for kv in records:
        by_bucket.setdefault(partitioner.partition(kv[0]), []).append(kv)
    buckets = {r: [] for r in range(partitioner.num_partitions)}
    for r, bucket_pairs in by_bucket.items():
        buckets[r] = list(combine_locally(bucket_pairs, agg).items())
    return buckets


mixed_keys = st.one_of(
    st.integers(-50, 50),
    st.booleans(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.floats(-4, 4, allow_nan=False, width=16),
    st.tuples(st.integers(0, 5), st.text(max_size=2)),
)
mixed_pairs = st.lists(st.tuples(mixed_keys, st.integers(-100, 100)), max_size=80)


class TestMapSideCombineContract:
    """The map side combines first, then partitions each distinct key."""

    def test_partitions_each_distinct_key_once(self):
        records = [(f"k{i % 7}", i) for i in range(200)] + [((i % 3, "w"), 1) for i in range(50)]
        partitioner = CountingPartitioner(4)
        map_output(partitioner, sum_agg(), True, records)
        assert partitioner.calls == len({k for k, _ in records})

    def test_without_combining_every_record_is_routed(self):
        records = [(f"k{i % 7}", i) for i in range(200)]
        partitioner = CountingPartitioner(4)
        buckets = map_output(partitioner, sum_agg(), False, records)
        assert partitioner.calls == len(records)
        assert sum(len(b) for b in buckets.values()) == len(records)

    @pytest.mark.parametrize("make_agg", [sum_agg, list_agg], ids=["from_reduce", "from_zero"])
    @given(data=mixed_pairs, reducers=st.integers(1, 6))
    def test_buckets_equal_partition_then_combine(self, make_agg, data, reducers):
        partitioner = HashPartitioner(reducers)
        agg = make_agg()
        got = map_output(partitioner, agg, True, data)
        assert pickle.dumps(got) == pickle.dumps(partition_then_combine(partitioner, agg, data))

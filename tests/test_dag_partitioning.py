"""Tests for partitioners and the stable hash."""

import enum
import operator

import pytest
from hypothesis import given, strategies as st

from repro.common.config import SchedulingMode
from repro.dag.dataset import parallelize
from repro.dag.partitioning import HashPartitioner, RangePartitioner, _stable_hash

from engine_test_utils import make_cluster, run_under_hash_seed

keys = st.one_of(
    st.integers(-(2**40), 2**40),
    st.text(max_size=30),
    st.binary(max_size=30),
    st.tuples(st.integers(0, 1000), st.text(max_size=8)),
)


class TestStableHash:
    def test_deterministic_for_strings(self):
        # Unlike built-in hash(str), must be stable across processes.
        assert _stable_hash("campaign-7") == 509687824

    @pytest.mark.parametrize(
        "key, expected",
        [
            (123456789, 123456789),
            (-7, -7),
            (True, 1),
            (False, 0),
            ("", 0),
            ("héllo", 2654700086),
            (b"\x00\xffab", 1082569059),
            (2.5, 1152921504606846978),
            (-0.75, -1729382256910270464),
            (("c-3", 17), 1200921412),
            ((1, ("a", b"b"), (2.5, True)), 1317285221),
            ((), 2166136261),
        ],
    )
    def test_golden_values(self, key, expected):
        # Literal values: a change here re-routes every existing key.
        assert _stable_hash(key) == expected

    def test_int_passthrough(self):
        assert _stable_hash(42) == 42

    def test_bytes_vs_str_consistent(self):
        assert _stable_hash("abc") == _stable_hash(b"abc")

    @given(keys)
    def test_repeatable(self, key):
        assert _stable_hash(key) == _stable_hash(key)


class Color(enum.Enum):
    RED = 1
    GREEN = 2
    BLUE = 3
    CYAN = 4
    MAGENTA = 5
    YELLOW = 6


# Keys whose built-in hash differs between processes: salted for Enum
# members and frozensets of strings, address-based for None before 3.12.
PROCESS_VARIANT_KEYS = [None, *Color, frozenset({"a", "b"}), frozenset({"c"}),
                        (Color.RED, None), ("w", frozenset({"x", "y"}))]

_HASH_SCRIPT = """
import enum
from repro.dag.partitioning import _stable_hash
class Color(enum.Enum):
    RED = 1
    GREEN = 2
print([_stable_hash(k) for k in (None, Color.RED, Color.GREEN,
       frozenset({"a", "b", "c"}), frozenset(), (Color.RED, None),
       ("w", frozenset({"x", (1, "y")})))])
"""


class TestProcessIndependentHash:
    def test_same_under_two_hash_seeds(self):
        assert run_under_hash_seed(_HASH_SCRIPT, 1) == run_under_hash_seed(_HASH_SCRIPT, 2)

    def test_enum_and_frozenset_values(self):
        assert _stable_hash(Color.RED) == _stable_hash("RED")
        assert _stable_hash(frozenset({"a", "b"})) == _stable_hash(frozenset({"b", "a"}))
        assert _stable_hash(frozenset({"a"})) != _stable_hash(frozenset({"b"}))

    def test_process_backend_reduce_by_key_one_row_per_key(self):
        # Map tasks run in spawned children, each with its own hash seed:
        # a per-process hash sends one key to several reducers.
        records = [(k, 1) for k in PROCESS_VARIANT_KEYS for _ in range(6)]
        with make_cluster(SchedulingMode.DRIZZLE, backend="process") as cluster:
            out = cluster.collect(parallelize(records, 6).reduce_by_key(operator.add, 4))
        assert len(out) == len(PROCESS_VARIANT_KEYS)
        assert dict(out) == {k: 6 for k in PROCESS_VARIANT_KEYS}


class TestHashPartitioner:
    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    @given(keys, st.integers(1, 64))
    def test_in_range(self, key, n):
        p = HashPartitioner(n).partition(key)
        assert 0 <= p < n

    @given(keys)
    def test_single_partition(self, key):
        assert HashPartitioner(1).partition(key) == 0

    def test_equality(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(8)
        assert hash(HashPartitioner(4)) == hash(HashPartitioner(4))

    def test_spreads_keys(self):
        partitioner = HashPartitioner(8)
        buckets = {partitioner.partition(f"key-{i}") for i in range(200)}
        assert len(buckets) == 8


class TestRangePartitioner:
    def test_boundaries(self):
        p = RangePartitioner([10, 20])
        assert p.num_partitions == 3
        assert p.partition(5) == 0
        assert p.partition(10) == 1
        assert p.partition(19) == 1
        assert p.partition(20) == 2
        assert p.partition(1000) == 2

    def test_empty_boundaries_single_partition(self):
        p = RangePartitioner([])
        assert p.num_partitions == 1
        assert p.partition(123) == 0

    def test_equality(self):
        assert RangePartitioner([1, 2]) == RangePartitioner([1, 2])
        assert RangePartitioner([1, 2]) != RangePartitioner([1, 3])
        assert RangePartitioner([1]) != HashPartitioner(2)

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=10, unique=True),
           st.integers(-200, 200))
    def test_ordering_property(self, boundaries, key):
        boundaries = sorted(boundaries)
        p = RangePartitioner(boundaries)
        idx = p.partition(key)
        # Keys below the first boundary land in 0; above the last in the
        # final partition; and partition index is monotone in the key.
        if idx > 0:
            assert key >= boundaries[idx - 1]
        if idx < len(boundaries):
            assert key < boundaries[idx]

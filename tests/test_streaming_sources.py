"""Tests for streaming sources: RecordLog, LogSource, fixed/rate sources."""

import pytest

from repro.common.errors import StreamingError
from repro.streaming.sources import (
    BatchRange,
    FixedBatchSource,
    LogSource,
    RateSource,
    RecordLog,
)


class TestRecordLog:
    def test_append_and_read(self):
        log = RecordLog(2)
        assert log.append(0, "a") == 0
        assert log.append(0, "b") == 1
        assert log.read(0, 0, 2) == ["a", "b"]
        assert log.read(0, 1, 2) == ["b"]

    def test_round_robin(self):
        log = RecordLog(3)
        log.append_round_robin(list(range(7)))
        assert log.end_offsets() == [3, 2, 2]
        assert log.read(0, 0, 3) == [0, 3, 6]

    def test_invalid_range_rejected(self):
        log = RecordLog(1)
        log.append(0, "a")
        with pytest.raises(StreamingError):
            log.read(0, 0, 5)
        with pytest.raises(StreamingError):
            log.read(0, -1, 1)
        with pytest.raises(StreamingError):
            log.read(0, 1, 0)

    def test_total_records(self):
        log = RecordLog(2)
        log.append_batch(0, ["a", "b"])
        log.append_batch(1, ["c"])
        assert log.total_records() == 3

    def test_rejects_zero_partitions(self):
        with pytest.raises(StreamingError):
            RecordLog(0)


class TestLogSource:
    def test_batches_consume_appended_data(self):
        log = RecordLog(2)
        source = LogSource(log)
        log.append_round_robin([1, 2, 3, 4])
        b0 = source.plan_batch(0)
        assert b0.total() == 4
        log.append_round_robin([5, 6])
        b1 = source.plan_batch(1)
        assert b1.total() == 2

    def test_planning_is_sticky(self):
        """Re-planning a batch (replay) returns the identical range even
        if more data arrived since — prefix integrity's foundation."""
        log = RecordLog(1)
        source = LogSource(log)
        log.append_batch(0, ["a", "b"])
        first = source.plan_batch(0)
        log.append_batch(0, ["c"])
        replay = source.plan_batch(0)
        assert replay == first

    def test_batches_must_be_planned_in_order(self):
        source = LogSource(RecordLog(1))
        with pytest.raises(StreamingError):
            source.plan_batch(3)

    def test_dataset_reads_the_planned_range(self):
        log = RecordLog(2)
        source = LogSource(log)
        log.append_round_robin(["a", "b", "c"])
        ds = source.dataset_for(source.plan_batch(0))
        assert list(ds.partition_fn(0)) == ["a", "c"]
        assert list(ds.partition_fn(1)) == ["b"]

    def test_forget_after_rolls_back(self):
        log = RecordLog(1)
        source = LogSource(log)
        log.append_batch(0, ["a"])
        source.plan_batch(0)
        log.append_batch(0, ["b"])
        source.plan_batch(1)
        assert source.planned_through() == 1
        source.forget_after(0)
        assert source.planned_through() == 0
        # Replanning batch 1 picks up everything appended since batch 0.
        log.append_batch(0, ["c"])
        b1 = source.plan_batch(1)
        assert b1.starts == (1,)
        assert b1.ends == (3,)

    def test_forget_all(self):
        log = RecordLog(1)
        source = LogSource(log)
        log.append_batch(0, ["a"])
        source.plan_batch(0)
        source.forget_after(-1)
        assert source.planned_through() == -1
        assert source.plan_batch(0).starts == (0,)

    def test_empty_batch_when_no_new_data(self):
        source = LogSource(RecordLog(2))
        assert source.plan_batch(0).total() == 0


class TestFixedBatchSource:
    def test_batches(self):
        source = FixedBatchSource([[1, 2, 3], [4]], num_partitions=2)
        assert source.num_batches == 2
        b0 = source.plan_batch(0)
        assert b0.total() == 3
        ds = source.dataset_for(b0)
        assert list(ds.partition_fn(0)) == [1, 3]
        assert list(ds.partition_fn(1)) == [2]

    def test_out_of_range(self):
        source = FixedBatchSource([[1]], 1)
        with pytest.raises(StreamingError):
            source.plan_batch(5)


class TestRateSource:
    def test_generates_per_batch(self):
        source = RateSource(lambda b, i: (b, i), records_per_batch=5, num_partitions=2)
        br = source.plan_batch(3)
        assert br.total() == 5
        ds = source.dataset_for(br)
        all_records = list(ds.partition_fn(0)) + list(ds.partition_fn(1))
        assert sorted(all_records) == [(3, i) for i in range(5)]

    def test_negative_rejected(self):
        with pytest.raises(StreamingError):
            RateSource(lambda b, i: i, records_per_batch=-1, num_partitions=1)


class TestBatchRange:
    def test_records_in(self):
        br = BatchRange(0, (0, 2), (3, 2))
        assert br.records_in(0) == 3
        assert br.records_in(1) == 0
        assert br.total() == 3

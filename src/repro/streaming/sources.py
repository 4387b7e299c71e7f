"""Streaming input sources.

The central abstraction is a :class:`RecordLog` — a Kafka-like partitioned,
offset-addressed, replayable log.  Batch *b* of a stream reads a
deterministic offset range from each partition, which gives the engine
deterministic replay (the foundation of micro-batch fault tolerance).

A batch's Dataset is a leaf whose ``partition_fn`` reads that batch's
records.  As in §4 of the paper, the driver only decides what a batch
reads (:meth:`StreamSource.plan_batch`) and the workers read it: each
source task's descriptor carries a read spec — its batch range and
partition — and the worker calls ``dataset_for(batch_range).partition_fn``
through the driver's process-local source registry, which stands in for
the external log (Kafka) every worker can reach.  The plan the workers
receive is code only and the same for every batch.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

from repro.common.errors import StreamingError
from repro.dag.dataset import SourceDataset


class RecordLog:
    """A partitioned append-only log with offset-based reads."""

    def __init__(self, num_partitions: int):
        if num_partitions < 1:
            raise StreamingError("num_partitions must be >= 1")
        self.num_partitions = num_partitions
        self._partitions: List[List[Any]] = [[] for _ in range(num_partitions)]
        self._lock = threading.Lock()

    def append(self, partition: int, record: Any) -> int:
        """Append one record; returns its offset."""
        with self._lock:
            part = self._partitions[partition]
            part.append(record)
            return len(part) - 1

    def append_batch(self, partition: int, records: Sequence[Any]) -> None:
        with self._lock:
            self._partitions[partition].extend(records)

    def append_round_robin(self, records: Sequence[Any]) -> None:
        with self._lock:
            for i, record in enumerate(records):
                self._partitions[i % self.num_partitions].append(record)

    def end_offset(self, partition: int) -> int:
        with self._lock:
            return len(self._partitions[partition])

    def end_offsets(self) -> List[int]:
        with self._lock:
            return [len(p) for p in self._partitions]

    def read(self, partition: int, start: int, end: int) -> List[Any]:
        """Read [start, end) from one partition; replayable at any time."""
        with self._lock:
            part = self._partitions[partition]
            if start < 0 or end > len(part) or start > end:
                raise StreamingError(
                    f"invalid range [{start}, {end}) for partition {partition} "
                    f"with {len(part)} records"
                )
            return part[start:end]

    def total_records(self) -> int:
        with self._lock:
            return sum(len(p) for p in self._partitions)


@dataclass(frozen=True)
class BatchRange:
    """The offset ranges one micro-batch consumes: per-partition [start, end)."""

    batch_index: int
    starts: tuple
    ends: tuple

    def records_in(self, partition: int) -> int:
        return self.ends[partition] - self.starts[partition]

    def total(self) -> int:
        return sum(e - s for s, e in zip(self.starts, self.ends))


class StreamSource:
    """Base class: turns batch indices into Datasets + tracks positions."""

    @property
    def num_partitions(self) -> int:
        raise NotImplementedError

    def plan_batch(self, batch_index: int) -> BatchRange:
        """Decide (deterministically, given the log contents) what batch
        ``batch_index`` consumes.  Must be callable repeatedly (replay)."""
        raise NotImplementedError

    def dataset_for(self, batch_range: BatchRange) -> SourceDataset:
        raise NotImplementedError


class LogSource(StreamSource):
    """Reads everything appended to a :class:`RecordLog` since the last
    planned batch — the behaviour of a receiver-less Kafka direct stream.

    Batch planning is *sticky*: once batch *b* is planned its range is
    remembered, so replay after a failure consumes identical data
    (prefix integrity).
    """

    def __init__(self, log: RecordLog):
        self.log = log
        self._planned: Dict[int, BatchRange] = {}
        self._cursor: List[int] = [0] * log.num_partitions
        self._lock = threading.Lock()

    @property
    def num_partitions(self) -> int:
        return self.log.num_partitions

    def plan_batch(self, batch_index: int) -> BatchRange:
        with self._lock:
            if batch_index in self._planned:
                return self._planned[batch_index]
            expected = len(self._planned)
            if batch_index != expected:
                raise StreamingError(
                    f"batches must be planned in order: expected {expected}, "
                    f"got {batch_index}"
                )
            starts = tuple(self._cursor)
            ends = tuple(self.log.end_offsets())
            batch_range = BatchRange(batch_index, starts, ends)
            self._planned[batch_index] = batch_range
            self._cursor = list(ends)
            return batch_range

    def dataset_for(self, batch_range: BatchRange) -> SourceDataset:
        log = self.log

        def partition_fn(partition: int) -> List[Any]:
            # Called by the worker that runs the source task, once per
            # attempt; the range is sticky, so every attempt reads the
            # same records.
            return log.read(
                partition, batch_range.starts[partition], batch_range.ends[partition]
            )

        return SourceDataset(partition_fn, log.num_partitions)

    def forget_after(self, batch_index: int) -> None:
        """Drop planning decisions after ``batch_index`` (checkpoint
        restore rolls the source back; replay will re-plan)."""
        with self._lock:
            doomed = [b for b in self._planned if b > batch_index]
            for b in doomed:
                del self._planned[b]
            if self._planned:
                last = max(self._planned)
                self._cursor = list(self._planned[last].ends)
            else:
                self._cursor = [0] * self.log.num_partitions

    def planned_through(self) -> int:
        with self._lock:
            return len(self._planned) - 1


class FixedBatchSource(StreamSource):
    """A source with pre-defined per-batch data — deterministic tests and
    benchmarks (each inner list is split across partitions round-robin)."""

    def __init__(self, batches: Sequence[Sequence[Any]], num_partitions: int):
        self._batches = [list(b) for b in batches]
        self._num_partitions = num_partitions

    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    @property
    def num_batches(self) -> int:
        return len(self._batches)

    def plan_batch(self, batch_index: int) -> BatchRange:
        if not 0 <= batch_index < len(self._batches):
            raise StreamingError(f"batch {batch_index} out of range")
        n = len(self._batches[batch_index])
        per = [len(range(p, n, self._num_partitions)) for p in range(self._num_partitions)]
        return BatchRange(batch_index, tuple([0] * self._num_partitions), tuple(per))

    def dataset_for(self, batch_range: BatchRange) -> SourceDataset:
        data = self._batches[batch_range.batch_index]
        parts = self._num_partitions

        def partition_fn(partition: int) -> List[Any]:
            return data[partition::parts]

        return SourceDataset(partition_fn, parts)


class RateSource(StreamSource):
    """Generates ``records_per_batch`` synthetic records per batch using a
    caller-supplied generator ``make(batch_index, i) -> record``."""

    def __init__(
        self,
        make: Callable[[int, int], Any],
        records_per_batch: int,
        num_partitions: int,
    ):
        if records_per_batch < 0:
            raise StreamingError("records_per_batch must be >= 0")
        self.make = make
        self.records_per_batch = records_per_batch
        self._num_partitions = num_partitions

    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    def plan_batch(self, batch_index: int) -> BatchRange:
        n = self.records_per_batch
        parts = self._num_partitions
        per = [len(range(p, n, parts)) for p in range(parts)]
        return BatchRange(batch_index, tuple([0] * parts), tuple(per))

    def dataset_for(self, batch_range: BatchRange) -> SourceDataset:
        make = self.make
        n = self.records_per_batch
        parts = self._num_partitions
        b = batch_range.batch_index

        def partition_fn(partition: int) -> List[Any]:
            return [make(b, i) for i in range(partition, n, parts)]

        return SourceDataset(partition_fn, parts)

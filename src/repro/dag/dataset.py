"""Logical dataset DAG — the user-facing functional API.

A :class:`Dataset` is an immutable description of a distributed
computation, mirroring Spark's RDD API (the substrate Drizzle was built
on).  Transformations build the DAG; nothing executes until an *action*
(`collect`, `count`, `reduce`, ...) is compiled by
:mod:`repro.dag.plan` and submitted to an engine.

Narrow transformations (map/filter/flat_map/map_partitions) are fused into
a single pipeline per stage, exactly as Figure 1 of the paper shows; wide
transformations (reduce_by_key, group_by_key, join, ...) introduce shuffle
dependencies which the planner turns into stage boundaries.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import PlanError
from repro.dag.combiners import Aggregator
from repro.dag.partitioning import HashPartitioner, Partitioner

KV = Tuple[Any, Any]
PipelineOp = Callable[[int, Iterator], Iterator]


class Dataset:
    """Base logical node.  ``num_partitions`` is the node's parallelism."""

    def __init__(self, num_partitions: int):
        if num_partitions < 1:
            raise PlanError(f"num_partitions must be >= 1, got {num_partitions}")
        self.num_partitions = num_partitions

    # ------------------------------------------------------------------
    # Narrow transformations
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any]) -> "Dataset":
        return NarrowDataset(self, lambda _p, it: map(fn, it), label="map")

    def filter(self, fn: Callable[[Any], bool]) -> "Dataset":
        return NarrowDataset(self, lambda _p, it: filter(fn, it), label="filter")

    def flat_map(self, fn: Callable[[Any], Iterable[Any]]) -> "Dataset":
        def op(_p: int, it: Iterator) -> Iterator:
            for item in it:
                yield from fn(item)

        return NarrowDataset(self, op, label="flat_map")

    def map_partitions(
        self, fn: Callable[[int, Iterator], Iterable[Any]]
    ) -> "Dataset":
        return NarrowDataset(self, lambda p, it: iter(fn(p, it)), label="map_partitions")

    def key_by(self, fn: Callable[[Any], Any]) -> "Dataset":
        return NarrowDataset(
            self, lambda _p, it: ((fn(x), x) for x in it), label="key_by"
        )

    def map_values(self, fn: Callable[[Any], Any]) -> "Dataset":
        return NarrowDataset(
            self, lambda _p, it: ((k, fn(v)) for k, v in it), label="map_values"
        )

    def keys(self) -> "Dataset":
        return NarrowDataset(self, lambda _p, it: (k for k, _v in it), label="keys")

    def values(self) -> "Dataset":
        return NarrowDataset(self, lambda _p, it: (v for _k, v in it), label="values")

    def sample(self, fraction: float, seed: int = 0) -> "Dataset":
        """Bernoulli sample; deterministic per (seed, partition) so replays
        of a micro-batch sample identically (required for exactly-once)."""
        if not 0.0 <= fraction <= 1.0:
            raise PlanError(f"fraction must be in [0, 1], got {fraction}")

        def op(partition: int, it: Iterator) -> Iterator:
            import random as _random

            rng = _random.Random(seed * 1_000_003 + partition)
            return (x for x in it if rng.random() < fraction)

        return NarrowDataset(self, op, label="sample")

    # ------------------------------------------------------------------
    # Wide transformations (introduce shuffles)
    # ------------------------------------------------------------------
    def reduce_by_key(
        self,
        fn: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> "Dataset":
        """Key-wise reduction with map-side partial aggregation (§3.5)."""
        return ShuffledDataset(
            self,
            partitioner=partitioner or HashPartitioner(num_partitions or self.num_partitions),
            aggregator=Aggregator.from_reduce(fn),
            reduce_mode="combine",
            combinable=True,
        )

    def aggregate_by_key(
        self,
        zero: Callable[[], Any],
        seq_op: Callable[[Any, Any], Any],
        comb_op: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
    ) -> "Dataset":
        return ShuffledDataset(
            self,
            partitioner=HashPartitioner(num_partitions or self.num_partitions),
            aggregator=Aggregator.from_zero(zero, seq_op, comb_op),
            reduce_mode="combine",
            combinable=True,
        )

    def group_by_key(self, num_partitions: Optional[int] = None) -> "Dataset":
        """Key-wise grouping into (key, [values]); no map-side combining —
        this is the unoptimized data plane of Figure 6."""
        return ShuffledDataset(
            self,
            partitioner=HashPartitioner(num_partitions or self.num_partitions),
            aggregator=None,
            reduce_mode="group",
            combinable=False,
        )

    def distinct(self, num_partitions: Optional[int] = None) -> "Dataset":
        """De-duplicate records (hashable) via a keyed shuffle."""
        return (
            self.map(lambda x: (x, None))
            .reduce_by_key(lambda a, _b: a, num_partitions)
            .keys()
        )

    def count_by_key(self, num_partitions: Optional[int] = None) -> "Dataset":
        """(key, _) pairs -> (key, count), with map-side combining."""
        return self.map(lambda kv: (kv[0], 1)).reduce_by_key(
            lambda a, b: a + b, num_partitions
        )

    def top(self, n: int, key: Optional[Callable[[Any], Any]] = None) -> "Dataset":
        """The n largest records: local top-n per partition, merged on a
        single reducer (a tiny, fixed-size shuffle)."""
        if n < 1:
            raise PlanError("n must be >= 1")
        key_fn = key if key is not None else (lambda x: x)

        def local_top(_p: int, it: Iterator) -> List[Any]:
            import heapq

            return [(0, x) for x in heapq.nlargest(n, it, key=key_fn)]

        def merge_top(_p: int, it: Iterator) -> List[Any]:
            import heapq

            return heapq.nlargest(n, (v for _k, v in it), key=key_fn)

        return (
            self.map_partitions(local_top)
            .partition_by(HashPartitioner(1))
            .map_partitions(merge_top)
        )

    def partition_by(self, partitioner: Partitioner) -> "Dataset":
        """Repartition (key, value) pairs without aggregation."""
        return ShuffledDataset(
            self,
            partitioner=partitioner,
            aggregator=None,
            reduce_mode="identity",
            combinable=False,
        )

    def join(self, other: "Dataset", num_partitions: Optional[int] = None) -> "Dataset":
        """Inner join of two keyed datasets -> (key, (left, right))."""
        parts = num_partitions or max(self.num_partitions, other.num_partitions)
        return CoGroupDataset(self, other, HashPartitioner(parts), mode="inner")

    def left_join(
        self, other: "Dataset", num_partitions: Optional[int] = None
    ) -> "Dataset":
        """Left outer join -> (key, (left, right_or_None))."""
        parts = num_partitions or max(self.num_partitions, other.num_partitions)
        return CoGroupDataset(self, other, HashPartitioner(parts), mode="left")

    def cogroup(
        self, other: "Dataset", num_partitions: Optional[int] = None
    ) -> "Dataset":
        """Full cogroup -> (key, ([left values], [right values])) for every
        key present on either side."""
        parts = num_partitions or max(self.num_partitions, other.num_partitions)
        return CoGroupDataset(self, other, HashPartitioner(parts), mode="cogroup")

    def union(self, other: "Dataset", num_partitions: Optional[int] = None) -> "Dataset":
        """All records of both datasets (bag union, duplicates kept).

        Implemented as a two-parent shuffle whose reduce side concatenates
        the incoming streams (unlike Spark's narrow union, this costs a
        shuffle — the planner's stages are single-input pipelines)."""
        parts = num_partitions or max(self.num_partitions, other.num_partitions)
        return UnionDataset(self, other, HashPartitioner(parts))

    def tree_reduce_stage(
        self, fn: Callable[[Any, Any], Any], fan_in: int = 2
    ) -> "Dataset":
        """One level of tree reduction (§3.6): partition *i* feeds reducer
        ``i // fan_in``, and pre-scheduling narrows each reducer's
        dependency set to its ``fan_in`` parents."""
        if fan_in < 2:
            raise PlanError("fan_in must be >= 2")
        num_reducers = (self.num_partitions + fan_in - 1) // fan_in
        return TreeStageDataset(self, fn, fan_in, num_reducers)


class SourceDataset(Dataset):
    """A leaf: ``partition_fn(partition_index)`` yields that partition's
    records.  The worker running a source task evaluates it, through the
    driver's process-local source registry the job registers it in; the
    task's descriptor carries only a read spec, so neither a stage blob
    nor a launch holds records."""

    def __init__(
        self,
        partition_fn: Callable[[int], Iterable[Any]],
        num_partitions: int,
        locality: Optional[Sequence[Optional[str]]] = None,
    ):
        super().__init__(num_partitions)
        self.partition_fn = partition_fn
        self.locality = list(locality) if locality is not None else None


def stream_input(partition: int) -> Iterable[Any]:
    """The source function of a streaming plan compiled once for a whole
    group: it stands for each batch's input, which each job names (its
    stream source and batch range) and the workers read."""
    raise PlanError(
        f"stream input for partition {partition} was not resolved: a "
        "streaming plan needs each job's source"
    )


def parallelize(data: Sequence[Any], num_partitions: int) -> SourceDataset:
    """Split an in-memory sequence into ``num_partitions`` even slices."""
    if num_partitions < 1:
        raise PlanError("num_partitions must be >= 1")
    items: List[Any] = list(data)

    def partition_fn(index: int) -> Iterable[Any]:
        return items[index::num_partitions]

    return SourceDataset(partition_fn, num_partitions)


def from_partitions(partitions: Sequence[Sequence[Any]]) -> SourceDataset:
    """A source with explicitly provided partition contents."""
    if not partitions:
        raise PlanError("need at least one partition")
    data = [list(p) for p in partitions]
    return SourceDataset(lambda i: data[i], len(data))


class NarrowDataset(Dataset):
    """A narrow (pipelined) transformation of a single parent."""

    def __init__(self, parent: Dataset, op: PipelineOp, label: str = "narrow"):
        super().__init__(parent.num_partitions)
        self.parent = parent
        self.op = op
        self.label = label


class ShuffledDataset(Dataset):
    """A wide transformation: the parent's output is hash/range
    partitioned into ``partitioner.num_partitions`` reduce partitions.

    ``reduce_mode``:
      * ``combine``  — aggregate values per key using ``aggregator``
      * ``group``    — collect values per key into a list
      * ``identity`` — pass pairs through (pure repartition)
    ``combinable`` — whether map-side combining is semantically valid.
    """

    def __init__(
        self,
        parent: Dataset,
        partitioner: Partitioner,
        aggregator: Optional[Aggregator],
        reduce_mode: str,
        combinable: bool,
    ):
        super().__init__(partitioner.num_partitions)
        if reduce_mode not in ("combine", "group", "identity"):
            raise PlanError(f"unknown reduce_mode {reduce_mode!r}")
        if reduce_mode == "combine" and aggregator is None:
            raise PlanError("combine mode requires an aggregator")
        self.parent = parent
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.reduce_mode = reduce_mode
        self.combinable = combinable


class CoGroupDataset(Dataset):
    """Two keyed parents shuffled to a shared partitioner; the reduce side
    combines them per ``mode``:

    * ``inner``   — (key, (left, right)) pairs for keys on both sides;
    * ``left``    — (key, (left, right_or_None));
    * ``cogroup`` — (key, ([lefts], [rights])) for every key.
    """

    def __init__(
        self,
        left: Dataset,
        right: Dataset,
        partitioner: Partitioner,
        mode: str = "inner",
    ):
        super().__init__(partitioner.num_partitions)
        if mode not in ("inner", "left", "cogroup"):
            raise PlanError(f"unknown join mode {mode!r}")
        self.left = left
        self.right = right
        self.partitioner = partitioner
        self.mode = mode


class UnionDataset(Dataset):
    """Bag union of two parents via a two-input concatenating shuffle."""

    def __init__(self, left: Dataset, right: Dataset, partitioner: Partitioner):
        super().__init__(partitioner.num_partitions)
        self.left = left
        self.right = right
        self.partitioner = partitioner


class TreeStageDataset(Dataset):
    """One tree-reduction level: map partition i sends its locally reduced
    value to reducer i // fan_in (§3.6 communication structure)."""

    def __init__(
        self,
        parent: Dataset,
        fn: Callable[[Any, Any], Any],
        fan_in: int,
        num_reducers: int,
    ):
        super().__init__(num_reducers)
        self.parent = parent
        self.fn = fn
        self.fan_in = fan_in

"""DStreams: discretized streams as per-batch Dataset factories.

A :class:`DStream` describes a transformation pipeline applied to every
micro-batch.  Nothing runs until an *output operation*
(``foreach_batch`` / ``sink_to`` / ``update_state``) registers the stream
with its :class:`~repro.streaming.context.StreamingContext`; the context's
job generator then compiles one plan per output op per group, over a
placeholder source, and submits one job per (output op, batch) in groups
(§3.1, §4).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, TYPE_CHECKING

from repro.dag.dataset import Dataset
from repro.dag.partitioning import Partitioner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.streaming.context import StreamingContext
    from repro.streaming.sinks import Sink
    from repro.streaming.state import StateStore


class DStream:
    """A stream of micro-batches; each batch materializes as a Dataset."""

    def __init__(self, ctx: "StreamingContext"):
        self.ctx = ctx

    def dataset_for(self, batch_index: int) -> Dataset:
        """Batch ``batch_index``'s dataset (plans the batch's input)."""
        source = self.ctx.source
        return self.dataset_over(source.dataset_for(source.plan_batch(batch_index)))

    def dataset_over(self, source: Dataset) -> Dataset:
        """This stream's transformations applied to ``source``, the
        dataset standing for one batch's input."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Per-batch transformations (mirror the Dataset API)
    # ------------------------------------------------------------------
    def transform(self, fn: Callable[[Dataset], Dataset]) -> "DStream":
        return _TransformedDStream(self, fn)

    def map(self, fn: Callable[[Any], Any]) -> "DStream":
        return self.transform(lambda ds: ds.map(fn))

    def filter(self, fn: Callable[[Any], bool]) -> "DStream":
        return self.transform(lambda ds: ds.filter(fn))

    def flat_map(self, fn: Callable[[Any], Iterable[Any]]) -> "DStream":
        return self.transform(lambda ds: ds.flat_map(fn))

    def map_partitions(self, fn) -> "DStream":
        return self.transform(lambda ds: ds.map_partitions(fn))

    def reduce_by_key(
        self,
        fn: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
        partitioner: Any = None,
    ) -> "DStream":
        """Per-batch keyed reduction; with map-side combining enabled this
        is the optimized (`reduceby`) data plane of §5.4.

        ``partitioner`` may be a :class:`~repro.dag.partitioning.Partitioner`
        or a zero-argument callable returning one (or ``None``).  The
        callable form is resolved per batch, so an elastic resize between
        groups re-partitions the *next* batch over the new partition
        count (see :meth:`StreamingContext.shard_partitioner`)."""

        def _apply(ds):
            p = partitioner() if callable(partitioner) else partitioner
            return ds.reduce_by_key(fn, num_partitions, partitioner=p)

        return self.transform(_apply)

    def group_by_key(self, num_partitions: Optional[int] = None) -> "DStream":
        """Per-batch grouping without combining (the `groupby` plane)."""
        return self.transform(lambda ds: ds.group_by_key(num_partitions))

    def partition_by(self, partitioner: Partitioner) -> "DStream":
        return self.transform(lambda ds: ds.partition_by(partitioner))

    # ------------------------------------------------------------------
    # Output operations
    # ------------------------------------------------------------------
    def foreach_batch(
        self, callback: Callable[[int, List[Any]], None]
    ) -> None:
        """Collect each batch's records to the driver and invoke
        ``callback(batch_index, records)`` in batch order."""
        self.ctx.register_output(self, callback)

    def sink_to(self, sink: "Sink") -> None:
        """Commit each batch's records to a sink keyed by batch id."""
        self.ctx.register_output(
            self, lambda batch_index, records: sink.commit(batch_index, records)
        )

    def update_state(
        self,
        store: "StateStore",
        merge: Callable[[Any, Any], Any],
        emit: Optional[Callable[["StateStore", int], List[Any]]] = None,
        sink: Optional["Sink"] = None,
    ) -> None:
        """Stateful aggregation: each batch's (key, value) pairs are merged
        into ``store``; ``emit(store, batch_index)`` may then produce
        records (e.g. closed windows) that are committed to ``sink``.

        State mutations happen in the context's batch-ordered callback
        path, so checkpoint/replay sees a consistent sequence.
        """

        def callback(batch_index: int, records: List[Any]) -> None:
            store.update_many(dict(records), merge)
            if emit is not None:
                out = emit(store, batch_index)
                if sink is not None:
                    sink.commit(batch_index, out)

        self.ctx.register_output(self, callback)


class _TransformedDStream(DStream):
    def __init__(self, parent: DStream, fn: Callable[[Dataset], Dataset]):
        super().__init__(parent.ctx)
        self.parent = parent
        self.fn = fn

    def dataset_over(self, source: Dataset) -> Dataset:
        return self.fn(self.parent.dataset_over(source))


class SourceDStream(DStream):
    """The root stream: batches come from the context's StreamSource."""

    def __init__(self, ctx: "StreamingContext"):
        super().__init__(ctx)

    def dataset_over(self, source: Dataset) -> Dataset:
        return source

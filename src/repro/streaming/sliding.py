"""Sliding windows over micro-batches.

Spark-Streaming-style ``reduceByKeyAndWindow``: keep each micro-batch's
keyed aggregate, and every ``slide`` batches emit the merge of the last
``window`` batches.  State is a bounded deque of per-batch aggregates, so
it participates in checkpoints like any driver-side state (stored inside a
:class:`~repro.streaming.state.StateStore` under reserved keys, keeping
snapshot/restore and replay semantics identical to tumbling windows).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import StreamingError
from repro.streaming.state import StateStore

_BATCHES_KEY = "__sliding_batches__"


class SlidingWindowAggregator:
    """Merges per-batch (key, value) aggregates into sliding windows.

    Use via :func:`attach_sliding_window`; also usable standalone:

    >>> store = StateStore("w")
    >>> agg = SlidingWindowAggregator(store, window=3, slide=1,
    ...                               merge=lambda a, b: a + b)
    >>> agg.on_batch(0, [("k", 1)])
    [('k', 1)]
    >>> agg.on_batch(1, [("k", 2)])
    [('k', 3)]
    """

    def __init__(
        self,
        store: StateStore,
        window: int,
        slide: int,
        merge: Callable[[Any, Any], Any],
    ):
        if window < 1:
            raise StreamingError("window must be >= 1 batch")
        if slide < 1 or slide > window:
            raise StreamingError("need 1 <= slide <= window")
        self.store = store
        self.window = window
        self.slide = slide
        self.merge = merge

    def on_batch(
        self, batch_index: int, pairs: List[Tuple[Any, Any]]
    ) -> Optional[List[Tuple[Any, Any]]]:
        """Record one batch's aggregate; returns the merged window when the
        slide boundary is reached, else None."""
        batches: List[Tuple[int, Dict[Any, Any]]] = self.store.get(_BATCHES_KEY, [])
        # Replay safety: a re-delivered batch replaces its old aggregate.
        batches = [(b, d) for (b, d) in batches if b != batch_index]
        batches.append((batch_index, dict(pairs)))
        batches = [
            (b, d) for (b, d) in batches if b > batch_index - self.window
        ]
        batches.sort()
        self.store.put(_BATCHES_KEY, batches)
        if (batch_index + 1) % self.slide != 0:
            return None
        merged: Dict[Any, Any] = {}
        for _b, aggregate in batches:
            for key, value in aggregate.items():
                if key in merged:
                    merged[key] = self.merge(merged[key], value)
                else:
                    merged[key] = value
        return sorted(merged.items(), key=lambda kv: str(kv[0]))


def attach_sliding_window(
    stream,
    store: StateStore,
    window: int,
    slide: int,
    merge: Callable[[Any, Any], Any],
    sink=None,
    callback: Optional[Callable[[int, List[Tuple[Any, Any]]], None]] = None,
) -> SlidingWindowAggregator:
    """Register a sliding-window output op on a keyed, per-batch-reduced
    DStream.  Emissions go to ``sink`` (committed per batch id) and/or
    ``callback(batch_index, merged_pairs)``."""
    aggregator = SlidingWindowAggregator(store, window, slide, merge)

    def on_batch(batch_index: int, records: List[Tuple[Any, Any]]) -> None:
        merged = aggregator.on_batch(batch_index, records)
        if merged is None:
            return
        if sink is not None:
            sink.commit(batch_index, merged)
        if callback is not None:
            callback(batch_index, merged)

    stream.ctx.register_output(stream, on_batch)
    return aggregator

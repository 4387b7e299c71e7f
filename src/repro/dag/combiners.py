"""Map-side partial aggregation (paper §3.5).

The paper's workload analysis (Table 2) found >95 % of aggregation queries
use *partial-merge* aggregates (count, sum, min, max, first, last), whose
computation can be pre-combined on the map side, shrinking shuffle traffic.
An :class:`Aggregator` captures the three functions Spark-style combiners
need; :func:`combine_locally` is the map-side pass and
:func:`merge_combiners_iter` is the reduce-side merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple

KV = Tuple[Any, Any]


@dataclass(frozen=True)
class Aggregator:
    """create_combiner / merge_value / merge_combiners triple."""

    create_combiner: Callable[[Any], Any]
    merge_value: Callable[[Any, Any], Any]
    merge_combiners: Callable[[Any, Any], Any]

    @classmethod
    def from_reduce(cls, fn: Callable[[Any, Any], Any]) -> "Aggregator":
        """Aggregator for a plain commutative+associative reduce function."""
        return cls(
            create_combiner=lambda v: v,
            merge_value=fn,
            merge_combiners=fn,
        )

    @classmethod
    def from_zero(
        cls,
        zero: Callable[[], Any],
        seq_op: Callable[[Any, Any], Any],
        comb_op: Callable[[Any, Any], Any],
    ) -> "Aggregator":
        """Aggregator for aggregate_by_key-style (zero, seq, comb)."""
        return cls(
            create_combiner=lambda v: seq_op(zero(), v),
            merge_value=seq_op,
            merge_combiners=comb_op,
        )


def combine_locally(pairs: Iterable[KV], agg: Aggregator) -> Dict[Any, Any]:
    """Map-side combine: fold all values for each key into one combiner."""
    merge_value, create_combiner = agg.merge_value, agg.create_combiner
    combined: Dict[Any, Any] = {}
    for key, value in pairs:
        if key in combined:
            combined[key] = merge_value(combined[key], value)
        else:
            combined[key] = create_combiner(value)
    return combined


def merge_combiners_iter(
    streams: Iterable[Iterable[KV]], agg: Aggregator
) -> Iterator[KV]:
    """Reduce-side merge of already-combined (key, combiner) streams."""
    merge_combiners = agg.merge_combiners
    merged: Dict[Any, Any] = {}
    for stream in streams:
        for key, comb in stream:
            if key in merged:
                merged[key] = merge_combiners(merged[key], comb)
            else:
                merged[key] = comb
    return iter(merged.items())


def reduce_values_iter(
    streams: Iterable[Iterable[KV]], agg: Aggregator
) -> Iterator[KV]:
    """Reduce-side aggregation of *raw* (key, value) streams — the path
    taken when map-side combining is disabled (the groupby configuration
    of Figure 6, as opposed to the reduceby configuration of Figure 8)."""
    merge_value, create_combiner = agg.merge_value, agg.create_combiner
    merged: Dict[Any, Any] = {}
    for stream in streams:
        for key, value in stream:
            if key in merged:
                merged[key] = merge_value(merged[key], value)
            else:
                merged[key] = create_combiner(value)
    return iter(merged.items())


def group_values_iter(streams: Iterable[Iterable[KV]]) -> Iterator[KV]:
    """Reduce-side grouping for group_by_key: (key, [values...])."""
    grouped: Dict[Any, List[Any]] = {}
    for stream in streams:
        for key, value in stream:
            grouped.setdefault(key, []).append(value)
    return iter(grouped.items())

"""Cross-batch query re-optimization (§3.5, "Optimization across batches
and queries").

"During every micro-batch, a number of metrics about the execution are
collected.  These metrics are aggregated at the end of a group and passed
on to a query optimizer to determine if an alternate query plan would
perform better."

Here the re-optimizable plan property is the *reduce parallelism*: the
optimizer watches per-batch keyed-output cardinality and recommends a
reducer count targeting a fixed number of records per reducer.  Because
the streaming job generator compiles plans at group-submission time, a
recommendation takes effect exactly at the next group boundary — plans
inside a group stay fixed, as §3.6 requires.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Tuple

from repro.common.errors import StreamingError
from repro.common.stats import ExponentialAverage
from repro.core.groups import HISTORY_GROUPS


@dataclass
class OptimizerDecision:
    batch_index: int
    observed_records: int
    smoothed_records: float
    previous_reducers: int
    new_reducers: int


class ReducerCountOptimizer:
    """Chooses reduce parallelism from observed per-batch cardinality."""

    def __init__(
        self,
        target_records_per_reducer: int = 1000,
        min_reducers: int = 1,
        max_reducers: int = 64,
        initial_reducers: int = 4,
        ewma_alpha: float = 0.4,
    ):
        if target_records_per_reducer < 1:
            raise StreamingError("target_records_per_reducer must be >= 1")
        if not 1 <= min_reducers <= initial_reducers <= max_reducers:
            raise StreamingError(
                "need 1 <= min_reducers <= initial_reducers <= max_reducers"
            )
        self.target = target_records_per_reducer
        self.min_reducers = min_reducers
        self.max_reducers = max_reducers
        self._reducers = initial_reducers
        self._ewma = ExponentialAverage(alpha=ewma_alpha)
        self.history: Deque[OptimizerDecision] = deque(maxlen=HISTORY_GROUPS)

    @property
    def current_reducers(self) -> int:
        """The recommendation the next plan compilation should use."""
        return self._reducers

    def observe(self, batch_index: int, output_records: int) -> OptimizerDecision:
        """Feed one batch's keyed-output cardinality."""
        if output_records < 0:
            raise StreamingError("output_records must be >= 0")
        smoothed = self._ewma.update(float(output_records))
        previous = self._reducers
        proposed = max(1, round(smoothed / self.target))
        new = min(max(proposed, self.min_reducers), self.max_reducers)
        self._reducers = new
        decision = OptimizerDecision(
            batch_index=batch_index,
            observed_records=output_records,
            smoothed_records=smoothed,
            previous_reducers=previous,
            new_reducers=new,
        )
        self.history.append(decision)
        return decision


def adaptive_reduce_by_key(
    stream,
    fn: Callable[[Any, Any], Any],
    optimizer: ReducerCountOptimizer,
):
    """A per-batch keyed reduction whose parallelism follows the
    optimizer's current recommendation.

    The reducer count is read at *plan-compilation* time (when the job
    generator builds a group), so it changes only between group
    boundaries.  Pair with :func:`attach_adaptive_output` so observed
    cardinalities feed back into the optimizer.
    """
    return stream.transform(
        lambda ds: ds.reduce_by_key(fn, optimizer.current_reducers)
    )


def attach_adaptive_output(
    stream,
    optimizer: ReducerCountOptimizer,
    callback: Callable[[int, List[Tuple[Any, Any]]], None],
) -> None:
    """Register an output op that feeds each batch's output cardinality to
    the optimizer before invoking ``callback`` (metrics collected per
    micro-batch, consumed at group boundaries — §3.5)."""

    def wrapped(batch_index: int, records: List[Tuple[Any, Any]]) -> None:
        optimizer.observe(batch_index, len(records))
        callback(batch_index, records)

    stream.ctx.register_output(stream, wrapped)

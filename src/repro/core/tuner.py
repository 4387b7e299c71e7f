"""Automatic group-size tuning (paper §3.4).

The tuner is an AIMD controller inspired by TCP congestion control: it
observes the fraction of end-to-end group execution time spent in
centralized coordination (scheduling, task serialization, RPC) and keeps
that fraction inside user-specified bounds.

* overhead > upper bound  -> multiplicatively *increase* the group size so
  coordination is amortized over more micro-batches and the overhead
  "decreases rapidly";
* overhead < lower bound  -> additively *decrease* the group size to
  improve adaptability (smaller groups mean faster reaction to failures
  and cluster changes).

Observations are smoothed with an exponentially weighted moving average so
transient spikes (the paper calls out GC pauses) do not thrash the group
size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional

from repro.common.config import TunerConf
from repro.common.stats import ExponentialAverage
from repro.core.groups import HISTORY_GROUPS, GroupObservation

# Additive decrease: micro-batches removed from the group per step.
DECREASE_STEP = 2


@dataclass
class TunerDecision:
    """One tuning step: what was observed and what was decided."""

    observed_overhead: float
    smoothed_overhead: float
    previous_group_size: int
    new_group_size: int
    action: str  # "increase" | "decrease" | "hold"

    def as_annotation(self) -> Dict[str, Any]:
        """Flat payload for span annotations / trace instants."""
        return {
            "overhead": round(self.observed_overhead, 6),
            "smoothed_overhead": round(self.smoothed_overhead, 6),
            "group_size_old": self.previous_group_size,
            "group_size_new": self.new_group_size,
            "action": self.action,
        }


class GroupSizeTuner:
    """AIMD controller over the scheduling-overhead fraction.

    Thread-compatibility: the engine calls ``observe`` from the driver's
    event loop only, so no internal locking is needed.
    """

    def __init__(self, conf: TunerConf, initial_group_size: int = 1):
        conf.validate()
        self.conf = conf
        if not conf.min_group_size <= initial_group_size <= conf.max_group_size:
            initial_group_size = min(
                max(initial_group_size, conf.min_group_size), conf.max_group_size
            )
        self._group_size = initial_group_size
        self._ewma = ExponentialAverage(alpha=conf.ewma_alpha)
        self.history: Deque[TunerDecision] = deque(maxlen=HISTORY_GROUPS)

    @property
    def group_size(self) -> int:
        return self._group_size

    @property
    def smoothed_overhead(self) -> Optional[float]:
        return self._ewma.value if self._ewma.initialized else None

    def observe(self, obs: GroupObservation) -> TunerDecision:
        """Feed one group's observation; returns the decision.  The
        observed ratio is the group's coordination time (scheduling +
        task transfer) over its wall time: the scheduling overhead of
        §3.4."""
        if obs.wall_s <= 0:
            raise ValueError(f"wall_s must be positive, got {obs.wall_s}")
        if obs.coordination_s < 0:
            raise ValueError("coordination time must be non-negative")
        observed = obs.overhead
        smoothed = self._ewma.update(observed)

        previous = self._group_size
        if smoothed > self.conf.overhead_upper_bound:
            action = "increase"
            proposed = int(round(previous * self.conf.increase_factor))
            proposed = max(proposed, previous + 1)
        elif smoothed < self.conf.overhead_lower_bound:
            action = "decrease"
            proposed = previous - DECREASE_STEP
        else:
            action = "hold"
            proposed = previous

        # A clamped step keeps its action but records that the size held.
        new_size = min(max(proposed, self.conf.min_group_size), self.conf.max_group_size)
        self._group_size = new_size

        decision = TunerDecision(
            observed_overhead=observed,
            smoothed_overhead=smoothed,
            previous_group_size=previous,
            new_group_size=new_size,
            action=action,
        )
        self.history.append(decision)
        return decision

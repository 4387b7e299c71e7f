"""Scaling policies for the elastic controller (§3.3, Elasticity).

"we integrate with existing cluster managers ... and the application
layer can choose policies on when to request or relinquish resources.  At
the end of a group boundary, Drizzle updates the list of available
resources and adjusts the tasks to be scheduled for the next group."

A policy reads the recent groups' :class:`~repro.core.groups.GroupObservation`
records (the newest carries the cluster's live telemetry signals when
telemetry is armed) and recommends a resize; the controller clamps it to
``ElasticConf.min_workers..max_workers`` and applies it only at group
boundaries, so in-flight groups are never disturbed.
:mod:`repro.streaming` re-exports the common ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.common.errors import StreamingError
from repro.core.groups import HISTORY_GROUPS, GroupObservation


@dataclass(frozen=True)
class ScalingDecision:
    """Recommendation for the next group boundary."""

    delta_workers: int  # >0 add, <0 remove, 0 hold
    reason: str


class ScalingPolicy:
    """Interface: called once per completed group with the recent groups'
    observations, oldest first (at most ``HISTORY_GROUPS`` of them)."""

    def decide(
        self, recent: Sequence[GroupObservation], current_workers: int
    ) -> ScalingDecision:
        raise NotImplementedError


class UtilizationScalingPolicy(ScalingPolicy):
    """Scale on the ratio of batch processing time to the batch interval.

    * ratio above ``scale_up_threshold``  -> request one more machine
      (the system is close to falling behind);
    * ratio below ``scale_down_threshold`` -> relinquish one machine
      (diurnal troughs: "more than 10x difference in load between peak
      and non-peak durations", §1);
    * otherwise hold.
    """

    def __init__(
        self,
        batch_interval_s: float,
        scale_up_threshold: float = 0.8,
        scale_down_threshold: float = 0.3,
        lookback_batches: int = 6,
    ):
        if batch_interval_s <= 0:
            raise StreamingError("batch_interval_s must be positive")
        if not 0.0 < scale_down_threshold < scale_up_threshold:
            raise StreamingError("need 0 < scale_down < scale_up")
        if not 1 <= lookback_batches <= HISTORY_GROUPS:
            raise StreamingError(f"lookback_batches must be in 1..{HISTORY_GROUPS}")
        self.batch_interval_s = batch_interval_s
        self.scale_up_threshold = scale_up_threshold
        self.scale_down_threshold = scale_down_threshold
        self.lookback_batches = lookback_batches

    def utilization(self, recent: Sequence[GroupObservation]) -> Optional[float]:
        """Mean batch wall time over the batch interval, across the newest
        ``lookback_batches`` batches (None before the first group).  It
        walks back group by group; each batch of a group is charged the
        group's mean wall time."""
        batches, wall = 0, 0.0
        for obs in reversed(recent):
            take = min(obs.batches, self.lookback_batches - batches)
            batches += take
            wall += take * obs.wall_s / obs.batches
            if batches == self.lookback_batches:
                break
        return wall / (batches * self.batch_interval_s) if batches else None

    def decide(
        self, recent: Sequence[GroupObservation], current_workers: int
    ) -> ScalingDecision:
        utilization = self.utilization(recent)
        if utilization is None:
            return ScalingDecision(0, "no data")
        if utilization > self.scale_up_threshold:
            return ScalingDecision(
                +1, f"utilization {utilization:.2f} > {self.scale_up_threshold}"
            )
        if utilization < self.scale_down_threshold:
            return ScalingDecision(
                -1, f"utilization {utilization:.2f} < {self.scale_down_threshold}"
            )
        return ScalingDecision(0, f"utilization {utilization:.2f} in band")


class SignalScalingPolicy(UtilizationScalingPolicy):
    """Signal-driven autoscaling over the live telemetry plane.

    Reads the newest group's telemetry signals
    (:meth:`ClusterTelemetry.signals`): a queueing-delay p99 above
    ``queue_delay_p99_ms`` or a positive task backlog means the cluster is
    falling behind — scale out even if wall-clock utilization has not
    crossed its threshold yet (queueing is the *leading* indicator;
    utilization the lagging one).  With healthy signals the utilization
    rule decides, so the policy degrades gracefully when telemetry is
    disabled (``signals`` is None).  The controller builds this policy
    when it is given none.
    """

    def __init__(
        self,
        batch_interval_s: float,
        queue_delay_p99_ms: float = 50.0,
        backlog_threshold: int = 1,
        **kwargs: Any,
    ):
        super().__init__(batch_interval_s, **kwargs)
        if queue_delay_p99_ms <= 0:
            raise StreamingError("queue_delay_p99_ms must be positive")
        if backlog_threshold < 1:
            raise StreamingError("backlog_threshold must be >= 1")
        self.queue_delay_p99_ms = queue_delay_p99_ms
        self.backlog_threshold = backlog_threshold

    def decide(
        self, recent: Sequence[GroupObservation], current_workers: int
    ) -> ScalingDecision:
        signals = recent[-1].signals if recent else None
        if signals:
            p99 = (signals.get("queueing_delay_ms") or {}).get("p99")
            if p99 is not None and p99 > self.queue_delay_p99_ms:
                return ScalingDecision(
                    +1, f"queueing delay p99 {p99:.1f}ms > {self.queue_delay_p99_ms}ms"
                )
            backlog = signals.get("backlog") or 0
            if backlog >= self.backlog_threshold:
                return ScalingDecision(
                    +1, f"task backlog {backlog} >= {self.backlog_threshold}"
                )
        return super().decide(recent, current_workers)


class ScheduleScalingPolicy(ScalingPolicy):
    """A scripted resize schedule: ``{boundary_index: delta}``.

    Deterministic regardless of timing, which is what the chaos soak and
    the equivalence tests need — the resize sequence must be identical
    between a faulted run and its baseline.
    """

    def __init__(self, schedule: Dict[int, int]):
        self.schedule = dict(schedule)
        self._boundary = 0

    def decide(
        self, recent: Sequence[GroupObservation], current_workers: int
    ) -> ScalingDecision:
        boundary = self._boundary
        self._boundary += 1
        delta = self.schedule.get(boundary, 0)
        if delta:
            return ScalingDecision(delta, f"scheduled resize at boundary {boundary}")
        return ScalingDecision(0, f"no resize scheduled at boundary {boundary}")


__all__: Tuple[str, ...] = (
    "ScalingDecision",
    "ScalingPolicy",
    "ScheduleScalingPolicy",
    "SignalScalingPolicy",
    "UtilizationScalingPolicy",
)

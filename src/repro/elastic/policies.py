"""Scaling policies for the elastic controller (§3.3, Elasticity).

"we integrate with existing cluster managers ... and the application
layer can choose policies on when to request or relinquish resources.  At
the end of a group boundary, Drizzle updates the list of available
resources and adjusts the tasks to be scheduled for the next group."

A policy inspects recent batch timings (and, for the signal-driven
policy, the cluster's live telemetry signals) and recommends a resize;
the controller applies recommendations only at group boundaries, so
in-flight groups are never disturbed.  :mod:`repro.streaming`
re-exports the common ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.common.errors import StreamingError


@dataclass(frozen=True)
class ScalingDecision:
    """Recommendation for the next group boundary."""

    delta_workers: int  # >0 add, <0 remove, 0 hold
    reason: str


class ScalingPolicy:
    """Interface: called once per completed group.

    ``recent`` is the context's :class:`~repro.streaming.context.BatchStats`
    history.  A policy that also wants the cluster's live signals
    (:meth:`repro.obs.live.ClusterTelemetry.signals`) overrides
    :meth:`decide_with_signals`; the default ignores them.
    """

    def decide(self, recent: Sequence[Any], current_workers: int) -> ScalingDecision:
        raise NotImplementedError

    def decide_with_signals(
        self,
        signals: Optional[Dict[str, Any]],
        recent: Sequence[Any],
        current_workers: int,
    ) -> ScalingDecision:
        return self.decide(recent, current_workers)


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
        min_workers: int = 1,
        max_workers: int = 1024,
        lookback_batches: int = 6,
    ):
        if batch_interval_s <= 0:
            raise StreamingError("batch_interval_s must be positive")
        if not 0.0 < scale_down_threshold < scale_up_threshold:
            raise StreamingError("need 0 < scale_down < scale_up")
        if not 1 <= min_workers <= max_workers:
            raise StreamingError("need 1 <= min_workers <= max_workers")
        if lookback_batches < 1:
            raise StreamingError("lookback_batches must be >= 1")
        self.batch_interval_s = batch_interval_s
        self.scale_up_threshold = scale_up_threshold
        self.scale_down_threshold = scale_down_threshold
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.lookback_batches = lookback_batches

    def decide(self, recent: Sequence[Any], current_workers: int) -> ScalingDecision:
        window = list(recent)[-self.lookback_batches :]
        if not window:
            return ScalingDecision(0, "no data")
        utilization = sum(s.wall_time_s for s in window) / (
            len(window) * self.batch_interval_s
        )
        if utilization > self.scale_up_threshold and current_workers < self.max_workers:
            return ScalingDecision(
                +1, f"utilization {utilization:.2f} > {self.scale_up_threshold}"
            )
        if (
            utilization < self.scale_down_threshold
            and current_workers > self.min_workers
        ):
            return ScalingDecision(
                -1, f"utilization {utilization:.2f} < {self.scale_down_threshold}"
            )
        return ScalingDecision(0, f"utilization {utilization:.2f} in band")


class SignalScalingPolicy(UtilizationScalingPolicy):
    """Signal-driven autoscaling over the live telemetry plane.

    Reads :meth:`ClusterTelemetry.signals` each boundary: a queueing-delay
    p99 above ``queue_delay_p99_ms`` or a positive task backlog means the
    cluster is falling behind — scale out even if wall-clock utilization
    has not crossed its threshold yet (queueing is the *leading*
    indicator; utilization the lagging one).  With healthy signals the
    utilization rule decides, so the policy degrades gracefully when
    telemetry is disabled (``signals`` is None).
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

    def decide_with_signals(
        self,
        signals: Optional[Dict[str, Any]],
        recent: Sequence[Any],
        current_workers: int,
    ) -> ScalingDecision:
        if signals and current_workers < self.max_workers:
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
        return self.decide(recent, current_workers)


class ScheduleScalingPolicy(ScalingPolicy):
    """A scripted resize schedule: ``{boundary_index: delta}``.

    Deterministic regardless of timing, which is what the chaos soak and
    the equivalence tests need — the resize sequence must be identical
    between a faulted run and its baseline.
    """

    def __init__(self, schedule: Dict[int, int]):
        self.schedule = dict(schedule)
        self._boundary = 0
        self.min_workers = 1
        self.max_workers = 1 << 20

    def decide(self, recent: Sequence[Any], current_workers: int) -> ScalingDecision:
        boundary = self._boundary
        self._boundary += 1
        delta = self.schedule.get(boundary, 0)
        if delta:
            return ScalingDecision(delta, f"scheduled resize at boundary {boundary}")
        return ScalingDecision(0, f"no resize scheduled at boundary {boundary}")


def resolve_policy(name: str, batch_interval_s: float) -> ScalingPolicy:
    """Build the policy named by :class:`ElasticConf.policy`."""
    if name == "signals":
        return SignalScalingPolicy(batch_interval_s)
    if name == "utilization":
        return UtilizationScalingPolicy(batch_interval_s)
    raise StreamingError(f"unknown elastic policy {name!r}")


__all__: Tuple[str, ...] = (
    "ScalingDecision",
    "ScalingPolicy",
    "ScheduleScalingPolicy",
    "SignalScalingPolicy",
    "UtilizationScalingPolicy",
    "resolve_policy",
)

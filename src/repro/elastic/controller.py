"""The elastic controller: live autoscaling at group boundaries (§3.3).

"At the end of a group boundary, Drizzle updates the list of available
resources and adjusts the tasks to be scheduled for the next group."

Each group boundary the controller hands the recent groups'
observations (the newest carrying the cluster's live telemetry signals)
to its :class:`~repro.elastic.policies.ScalingPolicy`, and — when the
decision survives the cooldown and the ``ElasticConf`` min/max clamp —
resizes the cluster.  In-flight groups are never disturbed:
everything here runs strictly between groups, inside the same barrier
that takes checkpoints.

A resize is a membership change plus a new reduce-partition count, and
nothing else.  Streaming state lives in one authoritative place, the
driver's :class:`~repro.streaming.state.StateStore`, which merges each
batch's reduce output whichever worker produced it; so no state moves
when workers come or go, and a resize sends no messages of its own
beyond the membership change.  Resizes go through
``cluster.add_worker`` / ``decommission_worker``, the same membership
path a crash takes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, List, Optional, Sequence, Tuple

from repro.chaos.injector import chaos_hit
from repro.chaos.plan import KIND_WORKER_KILL, SITE_ELASTIC_RESIZE
from repro.common.metrics import (
    COUNT_ELASTIC_DECISIONS,
    COUNT_ELASTIC_RESIZES,
    COUNT_ELASTIC_WORKERS_ADDED,
    COUNT_ELASTIC_WORKERS_REMOVED,
)
from repro.core.groups import HISTORY_GROUPS, GroupObservation
from repro.dag.partitioning import HashPartitioner
from repro.elastic.policies import ScalingDecision, ScalingPolicy, SignalScalingPolicy
from repro.obs.names import EVENT_SCALE_DECISION
from repro.obs.trace import NULL_RECORDER


@dataclass(frozen=True)
class ScalePlan:
    """One applied resize: what the controller actually did at a boundary."""

    delta: int
    reason: str
    added: Tuple[str, ...] = ()
    removed: Tuple[str, ...] = ()


class ElasticController:
    """Owns autoscaling for one cluster; attach via
    :meth:`StreamingContext.set_elasticity` (done automatically when
    ``EngineConf.elastic.enabled``).

    Construct with ``(cluster, policy, conf=...)`` — ``conf`` defaults to
    the cluster's ``EngineConf.elastic``, ``policy`` to a
    :class:`SignalScalingPolicy` — then the streaming context calls
    :meth:`at_group_boundary` with its recent groups; read the last
    ``HISTORY_GROUPS`` ``.decisions`` and ``.plans``.
    """

    def __init__(
        self,
        cluster: Any,
        policy: Optional[ScalingPolicy] = None,
        conf: Any = None,
        batch_interval_s: float = 0.1,
    ):
        self.cluster = cluster
        self.conf = conf if conf is not None else cluster.conf.elastic
        self.policy: ScalingPolicy = (
            policy if policy is not None else SignalScalingPolicy(batch_interval_s)
        )
        self.decisions: Deque[ScalingDecision] = deque(maxlen=HISTORY_GROUPS)
        self.plans: Deque[ScalePlan] = deque(maxlen=HISTORY_GROUPS)
        self._cooldown = 0
        tracer = getattr(cluster, "tracer", None)
        self.tracer = tracer if tracer is not None else NULL_RECORDER

    def partitioner(self) -> HashPartitioner:
        """The reduce partitioner for the next group:
        ``shards_per_worker`` partitions per placement worker, by hash."""
        workers = len(self.cluster.driver.placement_workers())
        return HashPartitioner(workers * self.conf.shards_per_worker)

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def at_group_boundary(self, recent: Sequence[GroupObservation]) -> ScalingDecision:
        """Consult the policy and (maybe) resize.  Called by the
        streaming context once per completed group, inside the boundary
        barrier — in-flight groups are never disturbed."""
        workers = self.cluster.driver.placement_workers()
        decision = self.policy.decide(recent, len(workers))
        self.cluster.metrics.counter(COUNT_ELASTIC_DECISIONS).add(1)

        delta = self._clamp(decision.delta_workers, len(workers))
        if delta != 0 and self._cooldown > 0:
            decision = ScalingDecision(
                0, f"cooldown ({self._cooldown} groups left): {decision.reason}"
            )
            delta = 0
        self.decisions.append(decision)
        if self._cooldown > 0:
            self._cooldown -= 1
        if delta == 0:
            return decision

        self.tracer.instant(
            EVENT_SCALE_DECISION,
            actor="driver",
            delta=delta,
            reason=decision.reason,
            workers=len(workers),
        )
        added: List[str] = []
        removed: List[str] = []
        if delta > 0:
            for _ in range(delta):
                added.append(self.cluster.add_worker())
            self.cluster.metrics.counter(COUNT_ELASTIC_WORKERS_ADDED).add(delta)
        else:
            # Graceful removal: the highest-numbered machines drain.
            removed = sorted(workers)[delta:]
            for worker_id in removed:
                self.cluster.decommission_worker(worker_id)
            self.cluster.metrics.counter(COUNT_ELASTIC_WORKERS_REMOVED).add(-delta)
        self.cluster.metrics.counter(COUNT_ELASTIC_RESIZES).add(1)
        self._annotate_scale_events(added, removed, decision.reason)
        self._cooldown = self.conf.cooldown_groups
        self.plans.append(
            ScalePlan(
                delta=delta,
                reason=decision.reason,
                added=tuple(added),
                removed=tuple(removed),
            )
        )
        self._chaos_after_resize(delta)
        return decision

    def _clamp(self, delta: int, current: int) -> int:
        target = max(self.conf.min_workers, min(self.conf.max_workers, current + delta))
        return target - current

    def _annotate_scale_events(
        self, added: Sequence[str], removed: Sequence[str], reason: str
    ) -> None:
        # The driver already annotates one join/leave line per worker as
        # membership changes; the controller adds the *decision* line that
        # says why the boundary resized.
        telemetry = getattr(self.cluster, "telemetry", None)
        if telemetry is None:
            return
        verb = f"+{len(added)}" if added else f"-{len(removed)}"
        telemetry.annotate_scale_event("cluster", "scale", f"{verb}: {reason}")

    def _chaos_after_resize(self, delta: int) -> None:
        # The elastic chaos profile's signature fault: a worker killed
        # racing the resize, after the membership change and before the
        # next group.  On scale-out the victim is the newest joiner; on
        # scale-in the highest-numbered survivor.
        placement = self.cluster.driver.placement_workers()
        if not placement:
            return
        victim = max(placement)
        fault = chaos_hit(SITE_ELASTIC_RESIZE, target=victim, method=f"{delta:+d}")
        if fault is not None and fault.kind == KIND_WORKER_KILL:
            self.cluster.kill_worker(victim, notify_driver=True)


__all__ = ["ElasticController", "ScalePlan"]

"""Elastic scaling policies (§3.3, Elasticity) — compatibility shim.

The policy layer moved to :mod:`repro.elastic.policies` and the live
controller that actually applies decisions (with stateful key-range
shard migration) lives in :mod:`repro.elastic.controller`.  This module
re-exports both so existing imports keep working.

:class:`ElasticityController` remains the simple *advisory* controller:
it applies add/decommission decisions but does not migrate operator
state.  New code should use :class:`repro.elastic.ElasticController`,
which a :class:`~repro.streaming.context.StreamingContext` attaches
automatically when ``EngineConf.elastic.enabled``.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.elastic.controller import ElasticController, ScalePlan
from repro.elastic.policies import (
    ScalingDecision,
    ScalingPolicy,
    ScheduleScalingPolicy,
    SignalScalingPolicy,
    UtilizationScalingPolicy,
    resolve_policy,
)


class ElasticityController:
    """Applies a policy's decisions to a LocalCluster at group boundaries.

    Advisory predecessor of :class:`repro.elastic.ElasticController`:
    resizes the worker set but moves no operator state (fine for
    stateless pipelines and for tests that only exercise membership).
    """

    def __init__(self, cluster, policy: ScalingPolicy):
        self.cluster = cluster
        self.policy = policy
        self.decisions: List[ScalingDecision] = []

    def register_store(self, store: Any) -> None:
        """Advisory scaling moves no state: stores are not tracked."""

    def partitioner_for(self, store_name: str) -> None:
        """No shard layouts: the default hash partitioner applies."""
        return None

    def at_group_boundary(self, batch_stats: Sequence[Any]) -> ScalingDecision:
        # Count only schedulable machines (excludes ones already draining).
        workers = self.cluster.driver.placement_workers()
        decision = self.policy.decide(batch_stats, len(workers))
        self.decisions.append(decision)
        if decision.delta_workers > 0:
            for _ in range(decision.delta_workers):
                self.cluster.add_worker()
        elif decision.delta_workers < 0:
            # Graceful removal: drained from placement, running work
            # completes, removed machines are the highest-numbered ones.
            for worker_id in sorted(workers)[decision.delta_workers :]:
                self.cluster.decommission_worker(worker_id)
        return decision


__all__ = [
    "ElasticController",
    "ElasticityController",
    "ScalePlan",
    "ScalingDecision",
    "ScalingPolicy",
    "ScheduleScalingPolicy",
    "SignalScalingPolicy",
    "UtilizationScalingPolicy",
    "resolve_policy",
]

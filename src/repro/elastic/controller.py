"""The elastic controller: live autoscaling at group boundaries (§3.3).

"At the end of a group boundary, Drizzle updates the list of available
resources and adjusts the tasks to be scheduled for the next group."

Each group boundary the controller reads the cluster's live telemetry
signals, asks its :class:`~repro.elastic.policies.ScalingPolicy` for a
decision, and — when
the decision survives the cooldown and the min/max clamp — actually
resizes the cluster and migrates stateful key-range shards so the next
group's tasks hash to the new layout.  In-flight groups are never
disturbed: everything here runs strictly between groups, inside the same
barrier that takes checkpoints.

Safety properties:

* resizes go through ``cluster.add_worker`` / ``decommission_worker``,
  the same membership path a crash takes;
* shard migration is planned per store by :func:`plan_resize` (minimal
  moves: split/merge of key ranges, not whole-partition reshuffles) and
  executed by :class:`~repro.elastic.migration.MigrationExecutor` with
  abort/requeue on mid-move worker loss;
* the shard-map epoch flips atomically only after every move of the
  round acked, so a partitioner observer sees either the old layout or
  the new one, never a mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.metrics import (
    COUNT_ELASTIC_DECISIONS,
    COUNT_ELASTIC_RESIZES,
    COUNT_ELASTIC_WORKERS_ADDED,
    COUNT_ELASTIC_WORKERS_REMOVED,
)
from repro.elastic.migration import MigrationExecutor, refine_with_outcomes
from repro.elastic.policies import ScalingDecision, ScalingPolicy, resolve_policy
from repro.elastic.shards import ShardMap, ShardRangePartitioner, plan_resize
from repro.obs.names import EVENT_SCALE_DECISION
from repro.obs.trace import NULL_RECORDER

# A rebalance round retries at most this many times against refreshed
# membership before giving up (each round can only fail if yet another
# worker died, so the bound is really the number of machines).
_MAX_REBALANCE_ROUNDS = 8


@dataclass(frozen=True)
class ScalePlan:
    """One applied resize: what the controller actually did at a boundary."""

    delta: int
    reason: str
    added: Tuple[str, ...] = ()
    removed: Tuple[str, ...] = ()
    epochs: Tuple[Tuple[str, int], ...] = ()  # (store, new shard-map epoch)


class ElasticController:
    """Owns autoscaling for one cluster; attach via
    :meth:`StreamingContext.set_elasticity` (done automatically when
    ``EngineConf.elastic.enabled``).

    Construct with ``(cluster, policy, conf=...)`` — ``conf`` defaults to
    the cluster's ``EngineConf.elastic`` — then the streaming context calls
    :meth:`at_group_boundary` with the batch-stats history; read
    ``.decisions`` and ``.plans``.
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
            policy
            if policy is not None
            else resolve_policy(self.conf.policy, batch_interval_s)
        )
        self.decisions: List[ScalingDecision] = []
        self.plans: List[ScalePlan] = []
        self._cooldown = 0
        self._maps: Dict[str, ShardMap] = {}
        self._stores: Dict[str, Any] = {}
        tracer = getattr(cluster, "tracer", None)
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        self.executor = MigrationExecutor(
            cluster.transport,
            cluster.metrics,
            tracer=self.tracer,
            clock=cluster.clock,
            on_worker_lost=cluster.driver.on_worker_lost,
            kill_cb=lambda worker_id: cluster.kill_worker(
                worker_id, notify_driver=True
            ),
        )

    # ------------------------------------------------------------------
    # Store registration / layout observation
    # ------------------------------------------------------------------
    def register_store(self, store: Any) -> ShardMap:
        """Track ``store``'s keyspace per key-range shard.  The initial
        layout tiles the hash space over the current placement; worker
        copies start empty (an empty base is exactly "state as of batch
        -1") so registration costs zero RPCs, and the store's migration
        cursor starts with every key unsynced."""
        if store.name not in self._maps:
            workers = self.cluster.driver.placement_workers()
            self._maps[store.name] = ShardMap.initial(
                workers, self.conf.shards_per_worker
            )
            self._stores[store.name] = store
        return self._maps[store.name]

    def shard_map(self, store_name: str) -> Optional[ShardMap]:
        return self._maps.get(store_name)

    def partitioner_for(self, store_name: str) -> Optional[ShardRangePartitioner]:
        """The partitioner for the *current* epoch of ``store_name``'s
        layout — the next group's tasks hash with this."""
        shard_map = self._maps.get(store_name)
        return shard_map.partitioner() if shard_map is not None else None

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def at_group_boundary(self, batch_stats: Sequence[Any]) -> ScalingDecision:
        """Consult the policy and (maybe) resize.  Called by the
        streaming context once per completed group, inside the boundary
        barrier — in-flight groups are never disturbed."""
        driver = self.cluster.driver
        workers = driver.placement_workers()
        signals = None
        telemetry = getattr(self.cluster, "telemetry", None)
        if telemetry is not None:
            try:
                signals = telemetry.signals()
            except Exception:
                signals = None
        if hasattr(self.policy, "decide_with_signals"):
            decision = self.policy.decide_with_signals(
                signals, batch_stats, len(workers)
            )
        else:
            decision = self.policy.decide(batch_stats, len(workers))
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
            # Membership may still have changed under us (a crash since
            # the last boundary): repair shard layouts if so.  On a quiet
            # boundary this is pure arithmetic — zero RPCs.
            self._rebalance()
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
            # Graceful removal: highest-numbered machines drain; their
            # shards migrate off while they are still alive to serve the
            # extracts.
            removed = sorted(workers)[delta:]
            for worker_id in removed:
                self.cluster.decommission_worker(worker_id)
            self.cluster.metrics.counter(COUNT_ELASTIC_WORKERS_REMOVED).add(-delta)
        self.cluster.metrics.counter(COUNT_ELASTIC_RESIZES).add(1)
        self._annotate_scale_events(added, removed, decision.reason)
        self._rebalance()
        self._cooldown = self.conf.cooldown_groups
        self.plans.append(
            ScalePlan(
                delta=delta,
                reason=decision.reason,
                added=tuple(added),
                removed=tuple(removed),
                epochs=tuple(
                    (name, shard_map.epoch)
                    for name, shard_map in sorted(self._maps.items())
                ),
            )
        )
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

    # ------------------------------------------------------------------
    # Shard migration
    # ------------------------------------------------------------------
    def _rebalance(self) -> None:
        """Bring every registered store's shard layout onto the current
        placement.  When membership did not change this is a no-op with
        zero RPCs (``plan_resize`` early-returns), which is what keeps
        ``count.rpc_messages`` parity exact for non-resize groups."""
        driver = self.cluster.driver
        for name, shard_map in list(self._maps.items()):
            store = self._stores[name]
            for round_no in range(_MAX_REBALANCE_ROUNDS):
                placement = driver.placement_workers()
                if not placement:
                    break  # nothing to own the shards; leave the map as-is
                alive = set(self.cluster.alive_workers())
                lost = [w for w in shard_map.workers() if w not in alive]
                target, moves = plan_resize(shard_map, placement, lost=lost)
                if not moves:
                    shard_map = target
                    break
                if round_no > 0:
                    self.executor.count_retry(len(moves))
                outcome = self.executor.execute(store, target.epoch, moves)
                if outcome.all_ok:
                    # Atomic flip: the new epoch becomes visible only now.
                    shard_map = target
                    if set(target.workers()) <= set(driver.placement_workers()):
                        break
                    # A worker died between planning and the flip — loop to
                    # reassign its shards from the driver mirror.
                else:
                    # Aborted moves keep their old owner (the source
                    # retained its copy); requeue against refreshed
                    # membership.
                    shard_map = refine_with_outcomes(shard_map, target, outcome.failed)
            self._maps[name] = shard_map


__all__ = ["ElasticController", "ScalePlan"]

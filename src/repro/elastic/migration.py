"""Key-range shard migration: shipping stateful operator state between
workers inside the group-boundary barrier.

The protocol per :class:`~repro.elastic.shards.ShardMove` is a
three-step, ack-gated transfer over the ordinary (counted) transport:

1. ``extract_state_shards`` on the source — the source *retains* its
   copy; nothing is destroyed before the destination acks.
2. ``install_state_shards`` on the destination with the source's base
   contents overlaid with the driver's dirty delta for the range (the
   updates since the source's copy was last synchronized — the state
   store's migration cursor, which shares its per-key change tracking
   with the checkpoint cursor).  The install
   is idempotent, keyed by (store, range, epoch), so a retry after a
   lost ack is harmless.
3. ``release_state_shards`` on the source, best-effort, only after the
   ack.

Failure rules (§3.3 — resizes must never be less safe than a crash):

* source lost mid-extract — the move falls back to the driver's
  authoritative mirror for the payload and proceeds;
* destination lost mid-install — the move *aborts*: the source keeps its
  shards, the driver's dirty bookkeeping is untouched, and the move is
  requeued by the controller against the refreshed membership;
* every abort counts on ``migration.aborts`` and annotates the active
  trace span; requeued attempts count on ``migration.retries``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.injector import chaos_hit
from repro.chaos.plan import KIND_WORKER_KILL, SITE_ELASTIC_RESIZE
from repro.common.clock import Clock, WallClock
from repro.common.errors import WorkerLost
from repro.common.metrics import (
    COUNT_MIGRATION_ABORTS,
    COUNT_MIGRATION_KEYS_MOVED,
    COUNT_MIGRATION_RETRIES,
    COUNT_MIGRATION_SHARDS_MOVED,
    HIST_MIGRATION_WALL,
    MetricsRegistry,
)
from repro.elastic.shards import KeyRange, ShardMap, ShardMove
from repro.obs.names import EVENT_MIGRATION_ABORT, SPAN_MIGRATION
from repro.obs.trace import NULL_RECORDER, Recorder


@dataclass
class MigrationOutcome:
    """What one :meth:`MigrationExecutor.execute` round accomplished."""

    epoch: int
    moved: List[ShardMove] = field(default_factory=list)
    failed: List[ShardMove] = field(default_factory=list)
    keys_moved: int = 0
    aborts: int = 0

    @property
    def all_ok(self) -> bool:
        return not self.failed


class MigrationExecutor:
    """Executes shard-move plans over a transport, driver-side.

    ``on_worker_lost`` is the driver's loss handler: a peer that fails a
    migration RPC is reported exactly like one that fails a launch, so
    membership and recovery react through the one existing
    path.  ``kill_cb`` lets the chaos profile crash a worker *racing* the
    migration (the ``elastic`` profile's signature fault).
    """

    def __init__(
        self,
        transport: Any,
        metrics: MetricsRegistry,
        tracer: Optional[Recorder] = None,
        clock: Optional[Clock] = None,
        on_worker_lost: Optional[Callable[[str], None]] = None,
        kill_cb: Optional[Callable[[str], None]] = None,
    ):
        self.transport = transport
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        self.clock = clock or WallClock()
        self._on_worker_lost = on_worker_lost
        self._kill_cb = kill_cb

    # ------------------------------------------------------------------
    def execute(
        self, store: Any, epoch: int, moves: List[ShardMove]
    ) -> MigrationOutcome:
        """Run every move; failures abort individual moves, never the
        round.  ``store`` is the driver-side
        :class:`~repro.streaming.state.StateStore` (the dirty-delta and
        recovery authority): its migration cursor supplies each range's
        overlay and closes the range's window when the destination acks."""
        outcome = MigrationOutcome(epoch=epoch)
        if not moves:
            return outcome
        start = self.clock.now()
        span = self.tracer.start_span(
            SPAN_MIGRATION,
            actor="driver",
            start_s=start,
            store=store.name,
            epoch=epoch,
            moves=len(moves),
        )
        with self.tracer.activate(span.context):
            for move in moves:
                self._one_move(store, epoch, move, outcome)
        span.annotate(
            moved=len(outcome.moved), failed=len(outcome.failed), keys=outcome.keys_moved
        )
        wall = self.clock.now() - start
        span.end(start + wall)
        self.metrics.histogram(HIST_MIGRATION_WALL).record(wall)
        return outcome

    # ------------------------------------------------------------------
    def _one_move(
        self, store: Any, epoch: int, move: ShardMove, outcome: MigrationOutcome
    ) -> None:
        key_range = move.range
        bounds = key_range.as_tuple()
        src: Optional[str] = move.src

        # Step 1: the base payload — from the retained source copy when it
        # is alive, else from the driver's authoritative mirror.
        base: Dict = {}
        if src is not None:
            try:
                shards = self.transport.call(
                    src, "extract_state_shards", store.name, [bounds]
                )
                base = dict(shards[0][1])
            except WorkerLost:
                self._abort(outcome, move, f"source {src} lost mid-extract")
                self._lost(src)
                src = None
        if src is None:
            base = store.extract_range(key_range)
            delta: Dict[str, Any] = {"updates": {}, "deleted": []}
        else:
            delta = store.delta_for_range(key_range)
        payload = dict(base)
        payload.update(delta["updates"])
        for key in delta["deleted"]:
            payload.pop(key, None)

        # The elastic chaos profile's signature fault: a worker killed
        # racing the resize, between extract and install.
        fault = chaos_hit(SITE_ELASTIC_RESIZE, target=move.dst, method=str(bounds))
        if (
            fault is not None
            and fault.kind == KIND_WORKER_KILL
            and self._kill_cb is not None
        ):
            self._kill_cb(move.dst)

        # Step 2: install on the destination; the ack is what commits.
        try:
            accepted = self.transport.call(
                move.dst,
                "install_state_shards",
                store.name,
                epoch,
                [(bounds, payload)],
            )
        except WorkerLost:
            self._abort(outcome, move, f"destination {move.dst} lost mid-install")
            self._lost(move.dst)
            outcome.failed.append(move)
            return
        if not accepted:
            # The destination has already seen a newer epoch: this move
            # belongs to a superseded plan — drop it, the controller will
            # replan against the current layout.
            self._abort(outcome, move, f"destination {move.dst} refused epoch {epoch}")
            outcome.failed.append(move)
            return

        # Step 3: acked — the driver's dirty window for the range closes
        # and the source may drop its copy.
        store.mark_range_synced(key_range)
        if src is not None and src != move.dst:
            self.transport.try_call(src, "release_state_shards", store.name, [bounds])
        outcome.moved.append(move)
        outcome.keys_moved += len(payload)
        self.metrics.counter(COUNT_MIGRATION_SHARDS_MOVED).add(1)
        self.metrics.counter(COUNT_MIGRATION_KEYS_MOVED).add(len(payload))

    # ------------------------------------------------------------------
    def _abort(self, outcome: MigrationOutcome, move: ShardMove, why: str) -> None:
        outcome.aborts += 1
        self.metrics.counter(COUNT_MIGRATION_ABORTS).add(1)
        self.tracer.instant(
            EVENT_MIGRATION_ABORT,
            actor="driver",
            range=str(move.range.as_tuple()),
            dst=move.dst,
            reason=why,
        )

    def _lost(self, worker_id: str) -> None:
        if self._on_worker_lost is not None:
            self._on_worker_lost(worker_id)

    def count_retry(self, n: int = 1) -> None:
        """Requeued moves (controller-driven) count as retries."""
        if n > 0:
            self.metrics.counter(COUNT_MIGRATION_RETRIES).add(n)


def refine_with_outcomes(
    old_map: ShardMap, target_map: ShardMap, failed: List[ShardMove]
) -> ShardMap:
    """The layout that *actually* holds after a partially-failed round:
    target ranges are split at old-map boundaries and every piece whose
    move failed keeps its old owner (the source retained it).  The
    controller replans from this map against refreshed membership, which
    requeues exactly the failed pieces."""
    failed_bounds = {m.range.as_tuple() for m in failed}
    pieces: List[Tuple[KeyRange, str]] = []
    for key_range, owner in target_map.assignments:
        position = key_range.start
        while position < key_range.stop:
            old_range, old_owner = old_map.assignments[old_map.shard_index(position)]
            piece_stop = min(key_range.stop, old_range.stop)
            piece = KeyRange(position, piece_stop)
            if piece.as_tuple() in failed_bounds:
                pieces.append((piece, old_owner))
            else:
                pieces.append((piece, owner))
            position = piece_stop
    return ShardMap(pieces, epoch=target_map.epoch)


__all__ = ["MigrationExecutor", "MigrationOutcome", "refine_with_outcomes"]

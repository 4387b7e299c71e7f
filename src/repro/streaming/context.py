"""StreamingContext: the job generator and batch loop.

Mirrors the Drizzle port of Spark Streaming (§4): instead of generating
and scheduling one job per micro-batch, the generator submits *a group of
micro-batches at once*, sized by the driver's current group size (which
the §3.4 AIMD tuner may be adjusting live).  The DAG is static, so each
output operation's plan is compiled once per group, over a placeholder
source, and shared by the group's jobs; each job names its batch — the
source and the range :meth:`StreamSource.plan_batch` pinned — and the
workers read it.  Output callbacks — sink commits and state updates —
always run in batch order.

Checkpoints are synchronous, taken at group boundaries (§3.3);
``restore_and_replay`` rolls state and source back to the last checkpoint
and replays the suffix of batches with ``reuse=True`` so surviving map
outputs are not recomputed (lineage reuse).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.chaos.injector import chaos_hit
from repro.chaos.plan import (
    KIND_CHECKPOINT_KILL,
    KIND_DRIVER_KILL,
    SITE_DRIVER,
    SITE_STREAM_CHECKPOINT,
    SITE_STREAM_GROUP,
)
from repro.common.errors import DriverKilled, StreamingError
from repro.common.metrics import (
    COUNT_CHECKPOINT_KEYS_COPIED,
    COUNT_CHECKPOINTS,
    COUNT_HA_RECOVERIES,
)
from repro.core.groups import HISTORY_GROUPS, GroupObservation
from repro.dag.dataset import SourceDataset, stream_input
from repro.dag.plan import PhysicalPlan, collect_action, compile_plan
from repro.engine.cluster import LocalCluster
from repro.obs.names import SPAN_CHECKPOINT, SPAN_RECOVERY
from repro.obs.trace import NULL_RECORDER
from repro.streaming.dstream import DStream, SourceDStream
from repro.streaming.sources import LogSource, StreamSource
from repro.streaming.state import Checkpoint, CheckpointStore, StateStore


@dataclass
class OutputOp:
    """One registered output operation."""

    index: int
    stream: DStream
    callback: Callable[[int, List[Any]], None]


class StreamingContext:
    """Drives a streaming application over a :class:`LocalCluster`."""

    def __init__(
        self,
        cluster: LocalCluster,
        source: StreamSource,
        batch_interval_s: float = 0.1,
        checkpoint_store: Optional[CheckpointStore] = None,
    ):
        if batch_interval_s <= 0:
            raise StreamingError("batch_interval_s must be positive")
        self.cluster = cluster
        self.driver = cluster.driver
        self.conf = cluster.conf
        self.source = source
        self.batch_interval_s = batch_interval_s
        self.checkpoints = checkpoint_store or CheckpointStore()
        tracer = getattr(cluster, "tracer", None)
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        self.output_ops: List[OutputOp] = []
        self.state_stores: Dict[str, StateStore] = {}
        self.next_batch = 0
        # The driver's observation of each recent group, completed with
        # its batch range: what the elastic policy reads at a boundary.
        self.recent_groups: Deque[GroupObservation] = deque(maxlen=HISTORY_GROUPS)
        self._batches_since_checkpoint = 0
        self._lock = threading.Lock()
        self._elasticity = None  # optional Elastic(ity)Controller
        if getattr(self.conf, "elastic", None) is not None and self.conf.elastic.enabled:
            # The live autoscaler (repro.elastic): imported here, not at
            # module top, because repro.elastic.controller is pure
            # driver-side logic with no streaming dependency — and the
            # attach is conditional on conf.
            from repro.elastic.controller import ElasticController

            self.set_elasticity(
                ElasticController(cluster, batch_interval_s=batch_interval_s)
            )

    def set_elasticity(self, controller) -> None:
        """Attach an elastic-scaling controller, consulted at every group
        boundary (§3.3: resources adjust between groups, never within)."""
        self._elasticity = controller

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def stream(self) -> DStream:
        return SourceDStream(self)

    def register_output(
        self, stream: DStream, callback: Callable[[int, List[Any]], None]
    ) -> None:
        self.output_ops.append(OutputOp(len(self.output_ops), stream, callback))

    def state_store(self, name: str) -> StateStore:
        """Create-or-get a named state store (included in checkpoints)."""
        if name not in self.state_stores:
            self.state_stores[name] = StateStore(name)
        return self.state_stores[name]

    def shard_partitioner(self, name: str):
        """A per-batch partitioner provider for the reduce that feeds the
        state store ``name`` (created if missing): pass it to
        :meth:`DStream.reduce_by_key` so each batch hashes into
        ``shards_per_worker`` partitions per current placement worker —
        after a resize at a group boundary, the next group's tasks use
        the new count.  The provider returns ``None`` when no elastic
        controller is attached, which falls back to the default hash
        partitioner."""
        self.state_store(name)

        def _provider():
            controller = self._elasticity
            return None if controller is None else controller.partitioner()

        return _provider

    # ------------------------------------------------------------------
    # The job generator / batch loop
    # ------------------------------------------------------------------
    def run_batches(self, n: int) -> None:
        """Process the next ``n`` micro-batches, submitting them to the
        engine in groups of the driver's current group size."""
        if not self.output_ops:
            raise StreamingError("no output operations registered")
        if n < 0:
            raise StreamingError("n must be >= 0")
        remaining = n
        while remaining > 0:
            group_size = max(1, min(self.driver.current_group_size, remaining))
            batch_indices = range(self.next_batch, self.next_batch + group_size)
            self._run_group(batch_indices)
            self.next_batch += group_size
            remaining -= group_size
            self._journal_group_commit(batch_indices)
            self._driver_chaos("boundary")
            telemetry = getattr(self.cluster, "telemetry", None)
            if telemetry is not None:
                telemetry.observe_stream_backlog(remaining)
            self._batches_since_checkpoint += group_size
            if (
                self._batches_since_checkpoint
                >= self.conf.effective_checkpoint_interval()
            ):
                self.checkpoint()
            if chaos_hit(SITE_STREAM_GROUP) is not None:
                # KIND_FORCE_REPLAY: simulate a driver restart at a group
                # boundary — restore the latest checkpoint and replay the
                # suffix.  Exactly-once means the replay must not change
                # any state or sink output.
                self.restore_and_replay()
            if self._elasticity is not None:
                self._elasticity.at_group_boundary(self.recent_groups)

    def _driver_chaos(self, where: str) -> None:
        """A scheduled driver kill (repro.ha chaos): raise out of the
        batch loop *as if the driver process died here*.  Placement
        matters — ``mid_group`` fires before the group's commit is
        journaled and ``mid_checkpoint`` before the checkpoint record, so
        the WAL's contents match what a real crash at that point leaves."""
        fault = chaos_hit(SITE_DRIVER, method=where)
        if fault is not None and fault.kind == KIND_DRIVER_KILL:
            raise DriverKilled(where)

    def _journal_group_commit(self, batch_indices: range) -> None:
        """Journal one committed group's batch ids — the durable recovery
        line (§3.3 group boundary)."""
        journal = getattr(self.cluster, "journal", None)
        if journal is not None:
            journal.record_group_commit(batch_indices)

    def _run_group(self, batch_indices: range, reuse: bool = True) -> None:
        self._driver_chaos("mid_group")
        # One plan per output operation for the whole group (§3.1: the
        # DAG is static).  Its source is a placeholder, so the plan holds
        # no batch's input and its stage blob is the same in every group.
        placeholder = SourceDataset(stream_input, self.source.num_partitions)
        group_plans = [
            compile_plan(
                op.stream.dataset_over(placeholder),
                collect_action(),
                map_side_combine=self.conf.map_side_combine,
            )
            for op in self.output_ops
        ]
        plans: List[PhysicalPlan] = []
        keys: List[Any] = []
        sources: List[Tuple[StreamSource, Any]] = []
        for batch_index in batch_indices:
            # Planning the batch pins its source offsets (sticky replay);
            # the workers read the range, the driver reads nothing.
            batch_range = self.source.plan_batch(batch_index)
            batch = self.source.dataset_for(batch_range)
            if batch.num_partitions != placeholder.num_partitions:
                raise StreamingError(
                    f"batch {batch_index} has {batch.num_partitions} partitions, "
                    f"the source declares {placeholder.num_partitions}"
                )
            for op, plan in zip(self.output_ops, group_plans):
                plans.append(plan)
                keys.append((op.index, batch_index))
                sources.append((self.source, batch_range))
        results = self.driver.run_group(
            plans, job_keys=keys, reuse=reuse, sources=sources
        )
        telemetry = getattr(self.cluster, "telemetry", None)
        signals = None
        if telemetry is not None and self._elasticity is not None:
            signals = telemetry.signals()
        obs = replace(
            self.driver.last_group,
            first_batch=batch_indices.start,
            batches=len(batch_indices),
            signals=signals,
        )
        self.recent_groups.append(obs)
        if telemetry is not None:
            for _ in batch_indices:
                telemetry.observe_batch(obs.wall_s / obs.batches)
        # Deliver callbacks strictly in batch order.
        cursor = 0
        for batch_index in batch_indices:
            for op in self.output_ops:
                op.callback(batch_index, results[cursor])
                cursor += 1

    # ------------------------------------------------------------------
    # Checkpointing and recovery (§3.3)
    # ------------------------------------------------------------------
    def checkpoint(self) -> Checkpoint:
        """Synchronous checkpoint at a group boundary."""
        self._driver_chaos("mid_checkpoint")
        fault = chaos_hit(SITE_STREAM_CHECKPOINT)
        if fault is not None and fault.kind == KIND_CHECKPOINT_KILL:
            # A machine dies while the checkpoint is being taken; the
            # checkpoint itself is driver-side state, so it completes, and
            # the next group exercises recovery onto fewer machines.
            alive = self.cluster.alive_workers()
            if len(alive) > 1:
                self.cluster.kill_worker(alive[-1], notify_driver=True)
        with self.tracer.start_span(
            SPAN_CHECKPOINT, root=True, actor="driver", batch_index=self.next_batch - 1
        ) as span:
            # Each store copies only the keys changed since its previous
            # snapshot; the journal records just those changes, or the
            # whole store after a restore (a full base).
            snapshots: Dict[str, Dict[Any, Any]] = {}
            full: Dict[str, Dict[Any, Any]] = {}
            deltas: Dict[str, Dict[str, Any]] = {}
            keys_copied: Dict[str, int] = {}
            tombstones: Dict[str, int] = {}
            for name, store in self.state_stores.items():
                snapshots[name] = store.snapshot()
                delta = store.take_changes()
                if delta is None:
                    full[name] = snapshots[name]
                    keys_copied[name], tombstones[name] = len(snapshots[name]), 0
                else:
                    deltas[name] = delta
                    keys_copied[name] = len(delta["updates"])
                    tombstones[name] = len(delta["deleted"])
            cp = Checkpoint(
                batch_index=self.next_batch - 1,
                state_snapshots=snapshots,
                extra={"next_batch": self.next_batch},
            )
            self.checkpoints.save(cp)
            journal = getattr(self.cluster, "journal", None)
            if journal is not None:
                journal.record_checkpoint(
                    cp.batch_index,
                    self.next_batch,
                    full,
                    extra=cp.extra,
                    state_deltas=deltas,
                )
            self._batches_since_checkpoint = 0
            self.cluster.metrics.counter(COUNT_CHECKPOINTS).add(1)
            self.cluster.metrics.counter(COUNT_CHECKPOINT_KEYS_COPIED).add(
                sum(keys_copied.values())
            )
            # Shuffle data at or before the checkpoint is no longer needed
            # for recovery; GC it cluster-wide.
            self.driver.drop_jobs(self.driver.job_ids_through(cp.batch_index))
            span.annotate(
                stores=len(snapshots),
                keys_copied=keys_copied,
                tombstones=tombstones,
                full={name: name in full for name in snapshots},
            )
        return cp

    def restore_and_replay(self) -> int:
        """Recover as after a driver/state loss: restore the latest
        checkpoint, roll the source back, and replay every batch after it.
        Returns the number of batches replayed."""
        with self.tracer.start_span(
            SPAN_RECOVERY, root=True, actor="driver", kind="restore_and_replay"
        ) as span:
            cp = self.checkpoints.latest()
            restored_through = cp.batch_index if cp is not None else -1
            for name, store in self.state_stores.items():
                if cp is not None and name in cp.state_snapshots:
                    store.restore(cp.state_snapshots[name])
                else:
                    store.restore({})
            if isinstance(self.source, LogSource):
                self.source.forget_after(restored_through)
            first_replay = restored_through + 1
            last = self.next_batch - 1
            if first_replay > last:
                span.annotate(restored_through=restored_through, replayed=0)
                return 0
            # Parallel recovery: the whole suffix is replayed as one group,
            # reusing any intermediate outputs that survived (§3.3).
            self._run_group(range(first_replay, last + 1), reuse=True)
            span.annotate(
                restored_through=restored_through,
                replayed=last - first_replay + 1,
            )
        return last - first_replay + 1

    def restore_from_recovery(self, state) -> int:
        """Resume this (rebuilt) context from a crashed driver's journal.

        ``state`` is the :class:`repro.ha.RecoveredState` a
        ``LocalCluster.recover(wal_dir)`` exposes.  State stores are
        restored from the last *journaled* checkpoint's snapshots, the
        source is rolled back to it, and ``next_batch`` is set so the
        batch loop re-runs exactly the suffix the journal never saw
        commit.  Returns the first batch the resumed loop will run.
        Callers must have rebuilt the pipeline (outputs + state stores
        under the same names) against the recovered cluster first."""
        with self.tracer.start_span(
            SPAN_RECOVERY, root=True, actor="driver", kind="restore_from_recovery"
        ) as span:
            cp_data = state.checkpoint
            if cp_data is not None:
                snapshots = cp_data.get("state_snapshots", {})
                for name, store in self.state_stores.items():
                    store.restore(snapshots.get(name, {}))
                # Seed the journal's checkpoint into the in-memory store so
                # a later restore_and_replay rolls back to it, not to zero.
                # The store gets containers of its own: the recovered dicts
                # stay the caller's.
                self.checkpoints.save(
                    Checkpoint(
                        batch_index=int(cp_data["batch_index"]),
                        state_snapshots={
                            name: dict(snapshot) for name, snapshot in snapshots.items()
                        },
                        extra=dict(cp_data.get("extra", {})),
                    )
                )
                self.next_batch = int(cp_data["next_batch"])
            else:
                for store in self.state_stores.values():
                    store.restore({})
                self.next_batch = 0
            if isinstance(self.source, LogSource):
                self.source.forget_after(self.next_batch - 1)
            self._batches_since_checkpoint = 0
            self.cluster.metrics.counter(COUNT_HA_RECOVERIES).add(1)
            span.annotate(
                next_batch=self.next_batch,
                committed=len(state.committed_batches),
            )
        return self.next_batch

"""Content-addressed stage-blob caching for the tcp launch path.

Under group scheduling the driver launches the same :class:`PhysicalPlan`
to every worker, and a plan's serialized closures dwarf the per-task
fields.  *Execution Templates* (Mashayekhi et al., 2017) caches the
control-plane artifact at the workers and ships only a token plus the
per-launch deltas; this module applies that idea to the wire:

* the sender serializes each plan **once** (memoized by object identity),
  names it by a content digest, and ships the blob to each peer at most
  once — later launches to that peer carry only the digest token;
* a blob is code only: it is serialized without any stage's source
  function, and a source task's descriptor carries a small read spec
  the worker resolves itself, never records.  A streaming context
  compiles one plan per output operation per group over a placeholder
  source, so the blob is byte-identical in every group and each worker
  loads it once for the life of the stream;
* the receiver caches ``digest -> deserialized plan`` and rebuilds full
  :class:`~repro.engine.task.TaskDescriptor` objects locally;
* a receiver that lost its cache (restart, eviction) answers
  ``stage_miss`` listing the digests it needs, and the sender re-encodes
  with those blobs forced in — the retry path that makes the cache a pure
  optimization, never a correctness hazard.

Both sides live inside :class:`~repro.net.transport.TcpTransport`; the
engine above it still passes plain descriptors to ``call("launch_tasks")``
and receives plain descriptors in ``Worker.launch_tasks``.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.common.metrics import (
    COUNT_STAGE_CACHE_HIT,
    COUNT_STAGE_CACHE_MISS,
    MetricsRegistry,
)
from repro.dag.serde import dumps_closure, loads_closure
from repro.engine.task import TaskDescriptor


# Plans cached per side (sender memo and receiver cache).  A stream's
# blobs are the same in every group, so a streaming job needs one entry
# per output operation, however many batches it runs; 64 leaves room for
# a sweep of distinct plans.
CACHE_ENTRIES = 64


def blob_digest(blob: bytes) -> str:
    """Content address of one serialized plan."""
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class WireTaskDescriptor:
    """A :class:`TaskDescriptor` with the plan replaced by its digest —
    the per-task fields that actually differ between launches, a source
    task's read spec included."""

    task_id: Any
    plan_digest: str
    pre_scheduled: bool = False
    deps: FrozenSet = frozenset()
    downstream: Dict[int, str] = field(default_factory=dict)
    map_locations: Dict = field(default_factory=dict)
    map_epochs: Dict = field(default_factory=dict)
    trace_ctx: Any = None
    read: Any = None


@dataclass
class WireLaunch:
    """The ``launch_tasks`` payload on the wire: light descriptors plus
    whichever blobs the sender believes the receiver is missing."""

    descriptors: List[WireTaskDescriptor]
    blobs: Dict[str, bytes]


class StageBlobSender:
    """Driver/launcher side: plan serialization memo + per-peer shipped
    sets."""

    def __init__(self, metrics: MetricsRegistry):
        self.metrics = metrics
        self._lock = threading.Lock()
        # id(plan) -> (plan, digest).  The plan reference keeps the id
        # stable for the cache's lifetime (and guards against reuse of a
        # collected object's id).
        self._plans: Dict[int, Tuple[Any, str]] = {}
        # digest -> blob, one copy per content: a stream compiles a new
        # plan object every group, and each one serializes to the same
        # bytes.
        self._blobs: Dict[str, bytes] = {}
        # peer -> digests that peer has acknowledged receiving.
        self._shipped: Dict[str, Set[str]] = {}

    def _entry(self, plan: Any) -> Tuple[str, bytes]:
        entry = self._plans.get(id(plan))
        if entry is None or entry[0] is not plan:
            if len(self._plans) >= CACHE_ENTRIES:
                # Wholesale eviction, like the process-backend cache: at
                # steady state one streaming plan repeats; sweeps of many
                # distinct plans gain nothing from LRU bookkeeping.
                self._plans.clear()
                self._blobs.clear()
            blob = dumps_closure(plan.code_only(), context="stage blob")
            entry = (plan, blob_digest(blob))
            self._plans[id(plan)] = entry
            self._blobs.setdefault(entry[1], blob)
        return entry[1], self._blobs[entry[1]]

    def encode(
        self,
        dst_id: str,
        descriptors: Sequence[TaskDescriptor],
        force: FrozenSet[str] = frozenset(),
    ) -> Tuple[WireLaunch, List[str]]:
        """Build the wire payload for one launch to one peer.

        Returns ``(launch, digests)`` where ``digests`` lists every plan
        digest the launch references — pass it to :meth:`mark_shipped`
        once the peer acknowledges.  ``force`` digests get their blob
        attached even if previously shipped (the stage_miss retry)."""
        wire_descs: List[WireTaskDescriptor] = []
        blobs: Dict[str, bytes] = {}
        digests: List[str] = []
        hits = misses = 0
        with self._lock:
            shipped = self._shipped.setdefault(dst_id, set())
            for desc in descriptors:
                digest, blob = self._entry(desc.plan)
                wire_descs.append(
                    WireTaskDescriptor(
                        task_id=desc.task_id,
                        plan_digest=digest,
                        pre_scheduled=desc.pre_scheduled,
                        deps=desc.deps,
                        downstream=desc.downstream,
                        map_locations=desc.map_locations,
                        map_epochs=desc.map_epochs,
                        trace_ctx=desc.trace_ctx,
                        read=desc.read,
                    )
                )
                if digest in digests:
                    continue
                digests.append(digest)
                if digest in shipped and digest not in force:
                    hits += 1
                else:
                    blobs[digest] = blob
                    misses += 1
        if hits:
            self.metrics.counter(COUNT_STAGE_CACHE_HIT).add(hits)
        if misses:
            self.metrics.counter(COUNT_STAGE_CACHE_MISS).add(misses)
        return WireLaunch(wire_descs, blobs), digests

    def mark_shipped(self, dst_id: str, digests: Sequence[str]) -> None:
        """The peer acknowledged a launch: it now holds these blobs."""
        with self._lock:
            self._shipped.setdefault(dst_id, set()).update(digests)

    def forget_peer(self, dst_id: str) -> None:
        """The peer re-registered (restart): assume its cache is empty."""
        with self._lock:
            self._shipped.pop(dst_id, None)


class StageBlobReceiver:
    """Worker side: ``digest -> deserialized plan`` cache."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._plans: Dict[str, Any] = {}

    def decode(
        self, launch: WireLaunch
    ) -> Tuple[Optional[List[TaskDescriptor]], List[str]]:
        """Rebuild full descriptors, or report which digests are missing.

        Returns ``(descriptors, [])`` on success or ``(None, missing)``
        when a referenced blob is neither attached nor cached — the
        caller answers ``stage_miss`` and the sender re-ships."""
        with self._lock:
            if launch.blobs and (
                len(self._plans) + len(launch.blobs) > CACHE_ENTRIES
            ):
                self._plans.clear()
            for digest, blob in launch.blobs.items():
                if digest in self._plans:
                    continue
                # Content addressing doubles as an integrity check: a blob
                # that does not hash to its label is dropped (it would
                # poison every later token-only launch), surfacing as a
                # miss for the sender to re-ship.
                if blob_digest(blob) != digest:
                    continue
                self._plans[digest] = loads_closure(blob)
            missing = sorted(
                {d.plan_digest for d in launch.descriptors} - set(self._plans)
            )
            if missing:
                return None, missing
            descriptors = [
                TaskDescriptor(
                    task_id=w.task_id,
                    plan=self._plans[w.plan_digest],
                    pre_scheduled=w.pre_scheduled,
                    deps=w.deps,
                    downstream=w.downstream,
                    map_locations=w.map_locations,
                    map_epochs=w.map_epochs,
                    trace_ctx=w.trace_ctx,
                    read=w.read,
                )
                for w in launch.descriptors
            ]
        return descriptors, []

    def clear(self) -> None:
        """Drop every cached plan (tests simulate a worker restart)."""
        with self._lock:
            self._plans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

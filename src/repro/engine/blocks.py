"""Per-worker shuffle block store.

Map tasks "materialize the output on local disk" (§3.2); here the backing
store is an in-memory dict per worker.  Blocks are keyed by
``(job_id, shuffle_id, map_index)`` with one bucket list per reduce
partition.  Losing a worker loses its store — exactly the failure mode the
paper's recovery protocol handles.

Every block also carries the *epoch* (producing task attempt) it was
written under: a re-run of a map task publishes a higher epoch, and
readers that require a minimum epoch treat older co-named blocks as
missing rather than silently serving stale data.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.injector import chaos_hit
from repro.chaos.plan import SITE_BLOCKS_FETCH
from repro.common.errors import FetchFailed

BlockKey = Tuple[int, int, int]  # (job_id, shuffle_id, map_index)

# Per-request outcome markers for get_buckets (these literals are part of
# the fetch_buckets wire protocol; see Worker.fetch_buckets).
BUCKET_OK = "ok"
BUCKET_MISSING = "missing"


class BlockStore:
    """Thread-safe map-output storage for one worker."""

    def __init__(self, worker_id: str):
        self.worker_id = worker_id
        self._blocks: Dict[BlockKey, Dict[int, List]] = {}
        self._epochs: Dict[BlockKey, int] = {}
        self._records = 0
        self._lock = threading.Lock()

    @staticmethod
    def _block_records(buckets: Dict[int, List]) -> int:
        return sum(len(v) for v in buckets.values())

    def put_map_output(
        self,
        job_id: int,
        shuffle_id: int,
        map_index: int,
        buckets: Dict[int, List],
        epoch: int = 0,
    ) -> None:
        key = (job_id, shuffle_id, map_index)
        with self._lock:
            prior = self._blocks.get(key)
            if prior is not None:
                self._records -= self._block_records(prior)
            self._blocks[key] = buckets
            self._epochs[key] = epoch
            self._records += self._block_records(buckets)

    def has_map_output(
        self, job_id: int, shuffle_id: int, map_index: int, min_epoch: int = 0
    ) -> bool:
        key = (job_id, shuffle_id, map_index)
        with self._lock:
            if key not in self._blocks:
                return False
            return self._epochs.get(key, 0) >= min_epoch

    def get_bucket(
        self,
        job_id: int,
        shuffle_id: int,
        map_index: int,
        reduce_index: int,
        min_epoch: int = 0,
    ) -> List:
        """Fetch one reduce partition's slice of one map output.

        Raises :class:`FetchFailed` when the block is absent — or written
        under an older epoch than required (a stale co-named block from a
        superseded attempt is *missing*, not data).  The caller treats
        this like fetching from a crashed machine."""
        key = (job_id, shuffle_id, map_index)
        with self._lock:
            self._maybe_drop_block_locked(key)
            block = self._blocks.get(key)
            if block is None or self._epochs.get(key, 0) < min_epoch:
                raise FetchFailed(shuffle_id, map_index, self.worker_id)
            return block.get(reduce_index, [])

    def get_buckets(
        self, job_id: int, requests: Sequence[Tuple]
    ) -> List[Tuple[str, Optional[List]]]:
        """Serve many ``(shuffle_id, map_index, reduce_index[,
        min_epoch])`` lookups in one consistent pass.

        Returns one ``(BUCKET_OK, bucket)`` or ``(BUCKET_MISSING, None)``
        per request, in request order.  Unlike :meth:`get_bucket` this
        never raises for an absent block: the batched fetch path needs
        per-map-output partial-failure semantics, so absence is data —
        the caller raises :class:`FetchFailed` for exactly the missing
        outputs (§3.3 recovery unchanged).  A block held at an older
        epoch than a request's ``min_epoch`` is reported missing for the
        same reason."""
        out: List[Tuple[str, Optional[List]]] = []
        with self._lock:
            if requests:
                sid, mid = requests[0][0], requests[0][1]
                self._maybe_drop_block_locked((job_id, sid, mid))
            for request in requests:
                shuffle_id, map_index, reduce_index = request[:3]
                min_epoch = request[3] if len(request) > 3 else 0
                key = (job_id, shuffle_id, map_index)
                block = self._blocks.get(key)
                if block is None or self._epochs.get(key, 0) < min_epoch:
                    out.append((BUCKET_MISSING, None))
                else:
                    out.append((BUCKET_OK, block.get(reduce_index, [])))
        return out

    def _maybe_drop_block_locked(self, key: BlockKey) -> None:
        """Chaos hook: delete the looked-up block so the caller observes a
        missing map output (the disk-loss failure mode of §3.3).  Called
        under ``self._lock``; the only scheduled kind at this site is
        ``block_delete``."""
        if chaos_hit(SITE_BLOCKS_FETCH, target=self.worker_id) is None:
            return
        buckets = self._blocks.pop(key, None)
        self._epochs.pop(key, None)
        if buckets is not None:
            self._records -= self._block_records(buckets)

    def bucket_sizes(
        self, job_id: int, shuffle_id: int, map_index: int
    ) -> Optional[Dict[int, int]]:
        with self._lock:
            block = self._blocks.get((job_id, shuffle_id, map_index))
            if block is None:
                return None
            return {r: len(v) for r, v in block.items()}

    @property
    def stored_records(self) -> int:
        """Total records held (record counts stand in for bytes, as in
        :class:`~repro.engine.task.TaskReport.output_sizes`)."""
        with self._lock:
            return self._records

    def drop_job(self, job_id: int) -> int:
        """Garbage-collect every block belonging to ``job_id``."""
        with self._lock:
            doomed = [k for k in self._blocks if k[0] == job_id]
            for k in doomed:
                self._records -= self._block_records(self._blocks[k])
                del self._blocks[k]
                self._epochs.pop(k, None)
        return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._blocks.clear()
            self._epochs.clear()
            self._records = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

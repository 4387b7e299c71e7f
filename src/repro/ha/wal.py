"""Append-only, CRC-framed write-ahead log for the driver control plane.

On-disk format — one *record* per journaled transition, the
:mod:`repro.net.framing` layout adapted for storage (a CRC field replaces
the response/request kind, because disk corruption is torn writes and
bit rot, not desynchronized streams):

====== ====== ===========================================================
offset size   field
====== ====== ===========================================================
0      2      magic ``b"RW"``
2      1      format version (1)
3      1      record type tag (currently always 1 = pickled record)
4      4      payload length, unsigned big-endian
8      4      CRC32 of the payload, unsigned big-endian
12     n      payload: pickled ``(record_type, payload_dict)``
====== ====== ===========================================================

Durability model: every append is flushed and fsynced before it
returns, so a crash can lose at most the record being written — never a
prefix, never the snapshot.  The reader is correspondingly
*prefix-tolerant*: a truncated header, short payload, or CRC mismatch at
the tail ends replay cleanly at the last good record instead of
poisoning it (torn tails are the expected crash artifact, not an error).

Compaction: :meth:`WriteAheadLog.compact` writes the folded live state
as a single-record ``snapshot.bin`` (tmp + fsync + atomic rename), then
truncates ``wal.log`` — replay cost stays O(live state), not O(history).
The log tracks both files' sizes (``log_bytes``, ``snapshot_bytes``) so
its caller can compact once the tail has grown to the snapshot's size.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import CheckpointError
from repro.common.metrics import (
    COUNT_HA_WAL_APPENDS,
    COUNT_HA_WAL_BYTES,
    COUNT_HA_WAL_FSYNCS,
    COUNT_HA_WAL_REPLAYS,
    COUNT_HA_WAL_SNAPSHOTS,
)

MAGIC = b"RW"
VERSION = 1
RT_RECORD = 1

HEADER = struct.Struct(">2sBBII")
HEADER_SIZE = HEADER.size  # 12 bytes

# Corruption guard, mirroring repro.net.framing: a garbled length field
# must not read as a multi-gigabyte allocation.
MAX_RECORD = 1 << 30

LOG_NAME = "wal.log"
SNAPSHOT_NAME = "snapshot.bin"


@dataclass(frozen=True)
class WalRecord:
    """One replayed journal record."""

    record_type: str
    payload: Dict[str, Any]


def encode_record(record_type: str, payload: Dict[str, Any]) -> bytes:
    """One framed record: header + pickled ``(record_type, payload)``."""
    body = pickle.dumps((record_type, payload), protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_RECORD:
        raise CheckpointError(
            f"WAL record of {len(body)} bytes exceeds the record limit"
        )
    return HEADER.pack(MAGIC, VERSION, RT_RECORD, len(body), zlib.crc32(body)) + body


def _decode_records(data: bytes) -> Tuple[List[WalRecord], int]:
    """Decode a byte stream of framed records, tolerating a torn tail.

    Returns ``(records, dropped_bytes)``: every record up to the first
    truncated/corrupt frame, and how many trailing bytes were dropped.
    Corruption never raises — a WAL tail damaged by the very crash we are
    recovering from must not block that recovery.
    """
    records: List[WalRecord] = []
    offset = 0
    total = len(data)
    while offset + HEADER_SIZE <= total:
        magic, version, rtype, length, crc = HEADER.unpack_from(data, offset)
        if magic != MAGIC or version != VERSION or rtype != RT_RECORD:
            break
        if length > MAX_RECORD or offset + HEADER_SIZE + length > total:
            break
        body = data[offset + HEADER_SIZE : offset + HEADER_SIZE + length]
        if zlib.crc32(body) != crc:
            break
        try:
            record_type, payload = pickle.loads(body)
        except Exception:
            break
        records.append(WalRecord(str(record_type), payload))
        offset += HEADER_SIZE + length
    return records, total - offset


def read_wal_records(path: str) -> Tuple[List[WalRecord], int]:
    """Replay one WAL file from disk; missing file reads as empty."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        return [], 0
    return _decode_records(data)


def _fsync_dir(dirname: str) -> None:
    # Make the rename itself durable; best-effort on platforms where
    # directories cannot be opened/fsynced.
    try:
        fd = os.open(dirname, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class WriteAheadLog:
    """The driver's journal file pair: ``snapshot.bin`` + ``wal.log``."""

    def __init__(self, wal_dir: str, metrics=None):
        self.wal_dir = wal_dir
        self.metrics = metrics
        os.makedirs(wal_dir, exist_ok=True)
        self.log_path = os.path.join(wal_dir, LOG_NAME)
        self.snapshot_path = os.path.join(wal_dir, SNAPSHOT_NAME)
        self._file = open(self.log_path, "ab")
        self.log_bytes = self._file.tell()
        try:
            self.snapshot_bytes = os.path.getsize(self.snapshot_path)
        except FileNotFoundError:
            self.snapshot_bytes = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def append(self, record_type: str, payload: Dict[str, Any]) -> None:
        """Append one record; it is durable when this returns."""
        if self._closed:
            raise CheckpointError("append on a closed WriteAheadLog")
        frame = encode_record(record_type, payload)
        self._file.write(frame)
        self._file.flush()
        os.fsync(self._file.fileno())
        self.log_bytes += len(frame)
        if self.metrics is not None:
            self.metrics.counter(COUNT_HA_WAL_APPENDS).add(1)
            self.metrics.counter(COUNT_HA_WAL_BYTES).add(len(frame))
            self.metrics.counter(COUNT_HA_WAL_FSYNCS).add(1)

    def compact(self, state: Dict[str, Any]) -> None:
        """Fold the live state into ``snapshot.bin`` and truncate the log.

        The snapshot lands via tmp-file + fsync + atomic rename, so a
        crash during compaction leaves either the old snapshot + full
        log or the new snapshot — never a half-written snapshot.
        """
        if self._closed:
            raise CheckpointError("compact on a closed WriteAheadLog")
        tmp_path = self.snapshot_path + ".tmp"
        frame = encode_record("snapshot", state)
        with open(tmp_path, "wb") as tmp:
            tmp.write(frame)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_path, self.snapshot_path)
        _fsync_dir(self.wal_dir)
        # Only now is the snapshot durable; the log prefix it covers can go.
        self._file.truncate(0)
        self._file.flush()
        os.fsync(self._file.fileno())
        self.snapshot_bytes = len(frame)
        self.log_bytes = 0
        if self.metrics is not None:
            self.metrics.counter(COUNT_HA_WAL_SNAPSHOTS).add(1)
            self.metrics.counter(COUNT_HA_WAL_BYTES).add(len(frame))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._file.close()

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def load(self) -> Tuple[Optional[Dict[str, Any]], List[WalRecord], Dict[str, int]]:
        """Replay snapshot + tail from this WAL's directory.

        Returns ``(snapshot_state, tail_records, stats)``; see
        :func:`load_wal` for the semantics.
        """
        return load_wal(self.wal_dir, metrics=self.metrics)


def load_wal(
    wal_dir: str, metrics=None
) -> Tuple[Optional[Dict[str, Any]], List[WalRecord], Dict[str, int]]:
    """Replay a WAL directory: the snapshot (if any) plus the log tail.

    Returns ``(snapshot_state, tail_records, stats)`` where ``stats``
    counts records replayed and tail bytes dropped as torn.  Never raises
    on corruption — the whole point is surviving a crashed writer.
    """
    snap_records, snap_dropped = read_wal_records(
        os.path.join(wal_dir, SNAPSHOT_NAME)
    )
    snapshot: Optional[Dict[str, Any]] = None
    if snap_records and snap_records[0].record_type == "snapshot":
        snapshot = snap_records[0].payload
    tail, tail_dropped = read_wal_records(os.path.join(wal_dir, LOG_NAME))
    replayed = len(tail) + (1 if snapshot is not None else 0)
    if metrics is not None and replayed:
        metrics.counter(COUNT_HA_WAL_REPLAYS).add(replayed)
    return (
        snapshot,
        tail,
        {
            "records_replayed": len(tail),
            "snapshot_loaded": 1 if snapshot is not None else 0,
            "torn_bytes_dropped": tail_dropped + snap_dropped,
        },
    )

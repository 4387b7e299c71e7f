"""Driver fault tolerance: control-plane WAL + crash-restart recovery.

The driver is the only stateful singleton in the engine; everything else
already survives chaos (worker kills, dropped frames, kills racing a
resize).  This package closes that gap with three pieces:

* :mod:`repro.ha.wal` — an append-only, CRC-framed write-ahead log (the
  ``repro.net.framing`` record style, on disk) that fsyncs every append,
  with snapshot compaction and a torn-tail-tolerant reader.
* :mod:`repro.ha.journal` — the control-plane journal layered on the
  WAL, holding only what recovery reads: session epochs, membership,
  group commits (the §3.3 commit points) and streaming checkpoints,
  folded into a live-state dict so compaction and replay stay O(live
  state).
* Session-epoch fencing — the journal hands out a monotonically
  increasing driver session epoch; the driver stamps it into
  worker-bound messages so a zombie driver's traffic is refused
  (:class:`repro.common.errors.StaleDriverEpoch`) instead of corrupting
  a recovered run.

Entry points: ``LocalCluster`` opens a journal when ``HaConf.enabled``;
``LocalCluster.recover(wal_dir)`` rebuilds a cluster from the journal.
"""

from repro.ha.journal import ControlJournal, RecoveredState
from repro.ha.wal import WalRecord, WriteAheadLog, read_wal_records

__all__ = [
    "ControlJournal",
    "RecoveredState",
    "WalRecord",
    "WriteAheadLog",
    "read_wal_records",
]

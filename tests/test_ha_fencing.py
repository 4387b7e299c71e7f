"""Session-epoch fencing (repro.ha): zombie drivers cannot mutate workers.

A driver believed dead whose restart already claimed a newer epoch may
still be running (network partition, GC pause).  Every mutating driver →
worker message carries the session epoch when HA is on; workers adopt the
highest epoch seen and refuse anything lower.  Sink commits are fenced the
same way.  Workers whose driver is down *park* completed reports with a
bounded jittered retry instead of discarding them.
"""

import pytest

from repro.common.config import EngineConf
from repro.common.errors import StaleDriverEpoch
from repro.common.metrics import (
    COUNT_HA_FENCED,
    COUNT_HA_PARKED_REPORTS,
    MetricsRegistry,
)
from repro.engine.rpc import Transport
from repro.engine.task import TaskId, TaskReport
from repro.engine.worker import Worker
from repro.streaming.sinks import EpochFencedSink


@pytest.fixture
def worker():
    conf = EngineConf(num_workers=1)
    conf.monitor.enable_heartbeats = False
    metrics = MetricsRegistry()
    transport = Transport(metrics)
    w = Worker("w0", transport, conf, metrics)
    w.start()
    yield w
    w.shutdown()


class TestWorkerFencing:
    def test_adopts_higher_epochs_monotonically(self, worker):
        worker.launch_tasks([], driver_epoch=1)
        worker.launch_tasks([], driver_epoch=3)
        worker.launch_tasks([], driver_epoch=3)  # same epoch still fine
        assert worker._adopted_epoch == 3

    def test_stale_epoch_refused_on_every_mutating_rpc(self, worker):
        worker.launch_tasks([], driver_epoch=2)
        with pytest.raises(StaleDriverEpoch):
            worker.launch_tasks([], driver_epoch=1)
        with pytest.raises(StaleDriverEpoch):
            worker.pre_populate(0, [], driver_epoch=1)
        with pytest.raises(StaleDriverEpoch):
            worker.cancel_job(0, driver_epoch=1)
        with pytest.raises(StaleDriverEpoch):
            worker.drop_job(0, driver_epoch=1)
        assert worker.metrics.counter(COUNT_HA_FENCED).value == 4
        # The zombie's refusals never lowered the adopted epoch.
        assert worker._adopted_epoch == 2

    def test_unstamped_messages_always_pass(self, worker):
        """HA off: no stamps arrive and nothing is fenced — the non-HA
        message flow is byte-identical to before."""
        worker.launch_tasks([], driver_epoch=2)
        worker.launch_tasks([])  # plumbing / non-HA caller
        worker.cancel_job(0)
        assert worker.metrics.counter(COUNT_HA_FENCED).value == 0

    def test_stale_epoch_surfaces_across_the_wire(self):
        """Over tcp the refusal must reach the caller as the typed error,
        not a hang or a generic failure."""
        from repro.net.transport import TcpTransport

        hub = TcpTransport(MetricsRegistry(), name="hub")
        peer = TcpTransport(
            MetricsRegistry(), hub_addr=hub.address, name="peer"
        )
        try:
            conf = EngineConf(num_workers=1)
            conf.monitor.enable_heartbeats = False
            w = Worker("w0", peer, conf, MetricsRegistry())
            w.start()
            hub.call("w0", "launch_tasks", [], **{"driver_epoch": 5})
            with pytest.raises(StaleDriverEpoch):
                hub.call("w0", "launch_tasks", [], **{"driver_epoch": 4})
            w.shutdown()
        finally:
            peer.close()
            hub.close()


class TestReportParking:
    def test_report_to_dead_driver_is_parked_not_discarded(self, worker):
        """No driver registered: delivery fails, the report parks, and the
        parked-report counter ticks.  The retry window is bounded — this
        call must return, not wedge the executor thread."""
        report = TaskReport(
            task_id=TaskId(job_id=0, stage_index=0, partition=0),
            worker_id="w0",
            succeeded=True,
            result=[1],
        )
        worker._send_report(report)
        assert worker.metrics.counter(COUNT_HA_PARKED_REPORTS).value == 1

    def test_parked_report_delivered_when_driver_returns(self, worker):
        """A driver that comes back inside the retry window receives the
        parked report — completed work survives a short driver outage."""
        import threading

        taken = []

        class LateDriver:
            def task_finished(self, report):
                taken.append(report)

        def register_late():
            worker.transport.register("driver", LateDriver())

        timer = threading.Timer(0.15, register_late)
        timer.start()
        report = TaskReport(
            task_id=TaskId(job_id=0, stage_index=0, partition=0),
            worker_id="w0",
            succeeded=True,
            result=[1],
        )
        try:
            worker._send_report(report)
        finally:
            timer.cancel()
        assert len(taken) == 1
        assert worker.metrics.counter(COUNT_HA_PARKED_REPORTS).value == 1


class TestEpochFencedSink:
    def test_stale_epoch_commit_refused(self):
        sink = EpochFencedSink()
        assert sink.commit(0, ["x"], epoch=2) is True
        assert sink.commit(1, ["zombie"], epoch=1) is False
        assert sink.fenced_commits == 1
        assert sink.committed_batches() == [0]
        assert sink.commit(1, ["y"], epoch=2) is True

    def test_restored_ledger_makes_recommits_noops(self):
        sink = EpochFencedSink()
        sink.adopt_epoch(2)
        sink.restore_ledger([0, 1])
        assert sink.commit(0, ["replayed"], epoch=2) is False
        assert sink.duplicate_commits == 1
        assert sink.commit(2, ["new"], epoch=2) is True
        assert sink.committed_batches() == [0, 1, 2]

    def test_unstamped_commit_behaves_like_idempotent_sink(self):
        sink = EpochFencedSink()
        assert sink.commit(0, ["x"]) is True
        assert sink.commit(0, ["x"]) is False
        assert sink.duplicate_commits == 1
        assert sink.fenced_commits == 0

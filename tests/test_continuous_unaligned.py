"""Aligned vs unaligned checkpoints in the continuous engine (§2.2's
synchronous vs asynchronous snapshot distinction).

Aligned barriers cut a consistent snapshot → exactly-once after recovery.
Unaligned snapshots (taken on the first barrier, channels never blocked)
avoid alignment stalls but give only at-least-once: records that raced
ahead of the barrier on other channels are both inside the restored
state's future and replayed.
"""

import time

from repro.continuous.engine import ContinuousJob, SourceSpec
from repro.continuous.operators import MapOperator, OperatorSpec, WindowAggOperator
from repro.streaming.sinks import IdempotentSink
from repro.streaming.sources import RecordLog


def make_job(log, sink, aligned, parallelism=2):
    return ContinuousJob(
        source=SourceSpec(log, event_time_fn=lambda r: r[1], watermark_every=10),
        operators=[
            OperatorSpec(
                "parse", lambda: MapOperator(lambda r: (r[0], (r[1], 1))), parallelism
            ),
            OperatorSpec(
                "window",
                lambda: WindowAggOperator(lambda a, b: a + b, 5.0),
                parallelism,
                partitioning="hash",
            ),
        ],
        sink=sink,
        aligned_checkpoints=aligned,
    )


def fill(n=400, partitions=2, keys=5):
    log = RecordLog(partitions)
    for i in range(n):
        log.append(i % partitions, (f"k{i % keys}", float(i) / 10.0))
    return log


def total_count(sink):
    return sum(c for (_k, _w, c) in sink.all_records())


class TestUnalignedNormalOperation:
    def test_no_failure_still_exact(self):
        """Without failures, unaligned checkpoints don't change results."""
        log = fill(300)
        sink = IdempotentSink()
        job = make_job(log, sink, aligned=False)
        job.start()
        time.sleep(0.05)
        job.trigger_checkpoint()
        job.close_input_and_wait(timeout=15)
        assert total_count(sink) == 300

    def test_checkpoint_completes_without_blocking(self):
        log = fill(300)
        sink = IdempotentSink()
        job = make_job(log, sink, aligned=False)
        job.start()
        time.sleep(0.05)
        job.trigger_checkpoint()
        deadline = time.monotonic() + 5
        while job.completed_checkpoints() < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert job.completed_checkpoints() == 1
        job.close_input_and_wait(timeout=15)


class TestRecoverySemantics:
    def test_aligned_exactly_once(self):
        log = fill(400)
        sink = IdempotentSink()
        job = make_job(log, sink, aligned=True)
        job.start()
        time.sleep(0.08)
        job.trigger_checkpoint()
        time.sleep(0.05)
        job.kill_operator_instance("window", 0)
        job.close_input_and_wait(timeout=20)
        assert total_count(sink) == 400

    def test_unaligned_at_least_once(self):
        """After a failure, unaligned recovery must deliver every record
        (no loss) but MAY deliver some twice."""
        log = fill(400)
        sink = IdempotentSink()
        job = make_job(log, sink, aligned=False)
        job.start()
        time.sleep(0.08)
        job.trigger_checkpoint()
        time.sleep(0.05)
        job.kill_operator_instance("window", 0)
        job.close_input_and_wait(timeout=20)
        assert total_count(sink) >= 400  # at-least-once: no record lost

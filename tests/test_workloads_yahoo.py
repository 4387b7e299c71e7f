"""Tests for the Yahoo Streaming Benchmark workload — including the
cross-engine agreement test: the micro-batch implementation (both data
planes) and the continuous implementation must produce identical window
counts on the same event log."""

import json

import pytest

from repro.common.config import EngineConf, SchedulingMode
from repro.engine.cluster import LocalCluster
from repro.streaming.context import StreamingContext
from repro.streaming.sinks import IdempotentSink
from repro.streaming.sources import FixedBatchSource, RecordLog
from repro.workloads.yahoo import (
    YahooWorkload,
    attach_microbatch_query,
    build_continuous_job,
    parse_and_key,
)


@pytest.fixture(scope="module")
def workload():
    return YahooWorkload(num_campaigns=5, ads_per_campaign=2, seed=11)


class TestGenerator:
    def test_events_are_json_with_fields(self, workload):
        e = json.loads(workload.make_event(3.5))
        assert e["event_time"] == 3.5
        assert e["ad_id"] in workload.ad_to_campaign
        assert e["event_type"] in ("view", "click", "purchase")

    def test_deterministic_given_seed(self):
        a = YahooWorkload(seed=5).generate(20, 10.0)
        b = YahooWorkload(seed=5).generate(20, 10.0)
        assert a == b

    def test_event_times_span_range(self, workload):
        events = workload.generate(100, 50.0)
        times = [json.loads(e)["event_time"] for e in events]
        assert times == sorted(times)
        assert times[0] == 0.0
        assert times[-1] < 50.0

    def test_view_fraction_roughly_honoured(self):
        w = YahooWorkload(view_fraction=0.5, seed=1)
        events = w.generate(2000, 10.0)
        views = sum(1 for e in events if json.loads(e)["event_type"] == "view")
        assert 0.4 < views / 2000 < 0.6

    def test_expected_counts_reference(self, workload):
        events = workload.generate(200, 30.0)
        counts = workload.expected_counts(events, window_s=10.0)
        views = sum(1 for e in events if json.loads(e)["event_type"] == "view")
        assert sum(counts.values()) == views
        assert all(w in (0, 1, 2) for (_c, w) in counts)


class TestParseAndKey:
    def test_view_event_keyed(self, workload):
        raw = json.dumps({"event_time": 12.0, "ad_id": "ad-0-0", "event_type": "view"})
        out = parse_and_key(workload.ad_to_campaign, 10.0)(raw)
        assert out == [(("campaign-0", 1), 1)]

    def test_non_view_dropped(self, workload):
        raw = json.dumps({"event_time": 1.0, "ad_id": "ad-0-0", "event_type": "click"})
        assert parse_and_key(workload.ad_to_campaign, 10.0)(raw) == []

    def test_unknown_ad_dropped(self, workload):
        raw = json.dumps({"event_time": 1.0, "ad_id": "nope", "event_type": "view"})
        assert parse_and_key(workload.ad_to_campaign, 10.0)(raw) == []


def run_microbatch(workload, events, optimized, num_batches=4):
    batches = [events[i::num_batches] for i in range(num_batches)]
    conf = EngineConf(
        num_workers=3, slots_per_worker=2,
        scheduling_mode=SchedulingMode.DRIZZLE, group_size=2,
        map_side_combine=optimized,
    )
    with LocalCluster(conf) as cluster:
        ctx = StreamingContext(cluster, FixedBatchSource(batches, 4), 0.05)
        store = ctx.state_store("windows")
        sink = IdempotentSink()
        attach_microbatch_query(
            ctx, workload, store, sink, window_s=10.0, optimized=optimized
        )
        ctx.run_batches(num_batches)
        return dict(store.items())


class TestMicroBatchQuery:
    @pytest.mark.parametrize("optimized", [True, False])
    def test_matches_reference(self, workload, optimized):
        events = workload.generate(400, 35.0)
        counts = run_microbatch(workload, events, optimized)
        assert counts == workload.expected_counts(events, 10.0)

    def test_optimized_and_unoptimized_agree(self, workload):
        """§3.5: the reduceby (combined) and groupby planes are equivalent."""
        events = workload.generate(300, 25.0)
        assert run_microbatch(workload, events, True) == run_microbatch(
            workload, events, False
        )

    def test_window_emission_with_watermark(self, workload):
        events = workload.generate(300, 30.0)
        # Arrival follows event time: batch b covers [10b, 10(b+1)).
        batches = [events[0:100], events[100:200], events[200:300]]
        conf = EngineConf(num_workers=2, scheduling_mode=SchedulingMode.DRIZZLE,
                          group_size=1)
        with LocalCluster(conf) as cluster:
            ctx = StreamingContext(cluster, FixedBatchSource(batches, 4), 0.05)
            store = ctx.state_store("windows")
            sink = IdempotentSink()
            # Each batch advances the watermark by 10s.
            attach_microbatch_query(
                ctx, workload, store, sink, window_s=10.0,
                watermark_for=lambda b: 10.0 * (b + 1),
            )
            ctx.run_batches(3)
            emitted = sink.all_records()
            # Every emitted triple is a closed window, each exactly once.
            assert len({(k, w) for (k, w, _c) in emitted}) == len(emitted)
            # Watermark reaches 30 s at batch 2, so windows 0-2 all close.
            assert all(w in (0, 1, 2) for (_k, w, _c) in emitted)
            assert sum(c for (_k, _w, c) in emitted) == sum(
                workload.expected_counts(events, 10.0).values()
            )


class TestCrossEngineAgreement:
    def test_continuous_matches_microbatch(self, workload):
        """The Flink-style and Spark/Drizzle-style implementations of the
        benchmark query must compute identical per-window counts."""
        events = workload.generate(400, 40.0)
        micro = run_microbatch(workload, events, optimized=True)

        log = RecordLog(2)
        log.append_round_robin(events)
        sink = IdempotentSink()
        job = build_continuous_job(log, workload, sink, window_s=10.0)
        job.start()
        job.close_input_and_wait(timeout=20)
        continuous = {(k, w): c for (k, w, c) in sink.all_records()}
        assert continuous == micro

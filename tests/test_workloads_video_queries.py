"""Tests for the video-analytics workload and the Table-2 query corpus."""

import json

import pytest

from repro.common.config import EngineConf, SchedulingMode
from repro.engine.cluster import LocalCluster
from repro.streaming.context import StreamingContext
from repro.streaming.sinks import IdempotentSink
from repro.streaming.sources import FixedBatchSource
from repro.workloads.queries import (
    PARTIAL_MERGE_CATEGORIES,
    TABLE2_DISTRIBUTION,
    QueryCorpusGenerator,
    WorkloadAnalyzer,
)
from repro.workloads.video import (
    SessionSummary,
    VideoWorkload,
    attach_session_query,
)


class TestSessionSummary:
    def test_merge(self):
        a = SessionSummary(events=2, buffering_events=1, bitrate_sum=3000, last_event_time=5.0)
        b = SessionSummary(events=1, buffering_events=0, bitrate_sum=800, last_event_time=9.0)
        m = a.merge(b)
        assert m.events == 3
        assert m.buffering_events == 1
        assert m.bitrate_sum == 3800
        assert m.last_event_time == 9.0

    def test_derived_metrics(self):
        s = SessionSummary(events=4, buffering_events=1, bitrate_sum=4000)
        assert s.buffering_ratio == 0.25
        assert s.avg_bitrate == 1000
        assert SessionSummary().buffering_ratio == 0.0
        assert SessionSummary().avg_bitrate == 0.0


class TestVideoGenerator:
    def test_heartbeat_shape(self):
        w = VideoWorkload(seed=3)
        e = json.loads(w.make_heartbeat(7.0))
        assert e["event_time"] == 7.0
        assert e["session_id"].startswith("session-")
        assert e["player_state"] in ("playing", "buffering", "paused")

    def test_deterministic(self):
        assert VideoWorkload(seed=9).generate(30, 5.0) == VideoWorkload(seed=9).generate(30, 5.0)

    def test_session_popularity_skewed(self):
        """Zipf skew: the most popular session gets far more heartbeats
        than a uniform share (this drives the Fig. 9 tail)."""
        w = VideoWorkload(num_sessions=50, seed=1)
        events = w.generate(3000, 100.0)
        counts = {}
        for raw in events:
            sid = json.loads(raw)["session_id"]
            counts[sid] = counts.get(sid, 0) + 1
        top = max(counts.values())
        uniform_share = 3000 / 50
        assert top > 4 * uniform_share

    def test_heavier_than_yahoo_records(self):
        from repro.workloads.yahoo import YahooWorkload

        video = VideoWorkload(seed=1).make_heartbeat(0.0)
        yahoo = YahooWorkload(seed=1).make_event(0.0)
        assert len(video) > len(yahoo)

    def test_expected_summaries(self):
        w = VideoWorkload(seed=4)
        events = w.generate(100, 10.0)
        summaries = w.expected_summaries(events)
        assert sum(s.events for s in summaries.values()) == 100


class TestVideoPipeline:
    def test_session_query_on_engine(self):
        w = VideoWorkload(num_sessions=20, seed=5)
        events = w.generate(200, 20.0)
        batches = [events[i::4] for i in range(4)]
        conf = EngineConf(num_workers=3, scheduling_mode=SchedulingMode.DRIZZLE, group_size=2)
        with LocalCluster(conf) as cluster:
            ctx = StreamingContext(cluster, FixedBatchSource(batches, 4), 0.05)
            store = ctx.state_store("sessions")
            sink = IdempotentSink()
            attach_session_query(ctx, store, sink)
            ctx.run_batches(4)
            expected = w.expected_summaries(events)
            got = dict(store.items())
            assert set(got) == set(expected)
            for sid, summary in expected.items():
                assert got[sid].events == summary.events
                assert got[sid].buffering_events == summary.buffering_events
                assert got[sid].bitrate_sum == pytest.approx(summary.bitrate_sum)


class TestQueryCorpus:
    def test_distribution_sums_to_100(self):
        assert sum(TABLE2_DISTRIBUTION.values()) == pytest.approx(100.0)

    def test_aggregation_fraction(self):
        gen = QueryCorpusGenerator(seed=1)
        result = WorkloadAnalyzer().analyze(gen.generate(20_000))
        # The paper: ~25 % of queries use one or more aggregations.
        assert 0.23 < result.aggregation_fraction < 0.27

    def test_partial_merge_share_above_95_percent(self):
        gen = QueryCorpusGenerator(seed=2)
        result = WorkloadAnalyzer().analyze(gen.generate(30_000))
        assert result.partial_merge_fraction > 0.95

    def test_category_percentages_match_table2(self):
        gen = QueryCorpusGenerator(seed=3)
        result = WorkloadAnalyzer().analyze(gen.generate(60_000))
        got = result.category_percentages()
        for category, expected in TABLE2_DISTRIBUTION.items():
            assert got[category] == pytest.approx(expected, abs=1.5)

    def test_analyzer_classifies_functions(self):
        analyzer = WorkloadAnalyzer()
        assert analyzer.categories_of("SELECT COUNT(x) FROM t") == ["Count"]
        assert analyzer.categories_of("SELECT sum(x) FROM t") == ["Sum/Min/Max"]
        assert analyzer.categories_of("SELECT FIRST(x), MEDIAN(y) FROM t") == [
            "First/Last",
            "Other",
        ]
        assert analyzer.categories_of("SELECT x FROM t") == []

    def test_mixed_query_attributed_to_least_mergeable(self):
        analyzer = WorkloadAnalyzer()
        result = analyzer.analyze(["SELECT COUNT(a), MEDIAN(b) FROM t"])
        assert result.category_counts == {"Other": 1}
        assert result.partial_merge_fraction == 0.0

    def test_non_aggregate_functions_ignored(self):
        analyzer = WorkloadAnalyzer()
        assert analyzer.categories_of("SELECT UPPER(name) FROM t") == []

    def test_partial_merge_categories(self):
        assert "Count" in PARTIAL_MERGE_CATEGORIES
        assert "Other" not in PARTIAL_MERGE_CATEGORIES
        assert "User Defined Function" not in PARTIAL_MERGE_CATEGORIES

    def test_empty_corpus(self):
        result = WorkloadAnalyzer().analyze([])
        assert result.aggregation_fraction == 0.0
        assert result.partial_merge_fraction == 0.0
        assert all(v == 0.0 for v in result.category_percentages().values())

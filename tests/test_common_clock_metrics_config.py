"""Tests for clocks, the metrics registry, and configuration validation."""

import threading

import pytest

from repro.common.clock import ManualClock, WallClock
from repro.common.config import (
    EngineConf,
    MonitorConf,
    SchedulingMode,
    TracingConf,
    TunerConf,
)
from repro.common.errors import ConfigError
from repro.common.metrics import MetricsRegistry


class TestManualClock:
    def test_starts_at_zero(self):
        assert ManualClock().now() == 0.0

    def test_advance(self):
        clock = ManualClock(start=5.0)
        clock.advance(2.5)
        assert clock.now() == 7.5

    def test_cannot_go_backwards(self):
        clock = ManualClock()
        with pytest.raises(ValueError):
            clock.advance(-1)
        with pytest.raises(ValueError):
            clock.set_time(-1)

    def test_sleep_blocks_until_advanced(self):
        clock = ManualClock()
        done = threading.Event()

        def sleeper():
            clock.sleep(1.0)
            done.set()

        t = threading.Thread(target=sleeper, daemon=True)
        t.start()
        assert not done.wait(0.05)
        clock.advance(1.0)
        assert done.wait(2.0)

    def test_wall_clock_monotone(self):
        clock = WallClock()
        a = clock.now()
        clock.sleep(0.001)
        assert clock.now() >= a


class TestMetricsRegistry:
    def test_counter_add(self):
        m = MetricsRegistry()
        m.counter("x").add(2)
        m.counter("x").add(3)
        assert m.counter("x").value == 5

    def test_counter_identity(self):
        m = MetricsRegistry()
        assert m.counter("a") is m.counter("a")

    def test_series(self):
        m = MetricsRegistry()
        m.series("s").record(1.0)
        m.series("s").record(2.0)
        assert m.series("s").snapshot() == [1.0, 2.0]
        assert len(m.series("s")) == 2

    def test_series_ring_bounded_with_dropped_count(self):
        m = MetricsRegistry()
        s = m.series("s", max_samples=3)
        for i in range(5):
            s.record(float(i))
        assert s.snapshot() == [2.0, 3.0, 4.0]  # oldest two evicted
        assert s.dropped == 2
        assert s.max_samples == 3
        assert m.snapshot()["series"]["s"]["dropped"] == 2

    def test_series_reset_clears_dropped(self):
        m = MetricsRegistry()
        s = m.series("s", max_samples=2)
        for i in range(4):
            s.record(float(i))
        assert s.dropped == 2
        m.reset()
        assert s.snapshot() == [] and s.dropped == 0

    def test_series_default_bound_and_validation(self):
        from repro.common.metrics import DEFAULT_SERIES_MAX_SAMPLES, TimeSeries

        m = MetricsRegistry()
        assert m.series("s").max_samples == DEFAULT_SERIES_MAX_SAMPLES
        with pytest.raises(ValueError):
            TimeSeries("bad", max_samples=0)

    def test_timed(self):
        clock = ManualClock()
        m = MetricsRegistry(clock)
        with m.timed("t"):
            clock.advance(3.0)
        assert m.counter("t").value == 3.0

    def test_timed_feeds_same_named_histogram(self):
        clock = ManualClock()
        m = MetricsRegistry(clock)
        for elapsed in (1.0, 2.0, 4.0):
            with m.timed("t"):
                clock.advance(elapsed)
        assert m.counter("t").value == 7.0
        assert m.histogram("t").snapshot() == [1.0, 2.0, 4.0]
        assert m.histogram("t").summary()["count"] == 3

    def test_gauge_set_and_add(self):
        m = MetricsRegistry()
        g = m.gauge("group_size")
        assert g is m.gauge("group_size")
        g.set(4)
        g.add(2)
        assert g.value == 6.0
        g.reset()
        assert g.value == 0.0

    def test_histogram_percentiles(self):
        m = MetricsRegistry()
        h = m.histogram("lat")
        for v in range(1, 101):
            h.record(float(v))
        s = h.summary()
        assert s["count"] == 100
        assert s["sum"] == pytest.approx(5050.0)
        assert s["p50"] == pytest.approx(50, abs=1)
        assert s["p99"] == pytest.approx(99, abs=1)
        assert s["max"] == 100.0
        assert len(h) == 100

    def test_empty_histogram_summary(self):
        assert MetricsRegistry().histogram("h").summary() == {"count": 0}

    def test_reset(self):
        m = MetricsRegistry()
        m.counter("x").add(1)
        m.series("s").record(1.0)
        m.gauge("g").set(5)
        m.histogram("h").record(2.0)
        m.reset()
        assert m.counter("x").value == 0
        assert m.series("s").snapshot() == []
        assert m.gauge("g").value == 0
        assert len(m.histogram("h")) == 0

    def test_snapshot(self):
        m = MetricsRegistry()
        m.counter("a").add(1)
        m.counter("b").add(2)
        assert m.counters_snapshot() == {"a": 1, "b": 2}

    def test_unified_snapshot(self):
        m = MetricsRegistry()
        m.counter("c").add(3)
        m.gauge("g").set(7)
        m.histogram("h").record(1.0)
        m.histogram("h").record(3.0)
        m.series("s").record(2.0)
        snap = m.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms", "series"}
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 7}
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["mean"] == pytest.approx(2.0)
        assert snap["series"]["s"]["count"] == 1
        import json

        json.dumps(snap)  # must be JSON-serializable as exported by bench

    def test_thread_safety(self):
        m = MetricsRegistry()

        def bump():
            for _ in range(1000):
                m.counter("n").add(1)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("n").value == 4000


class TestEngineConf:
    def test_defaults_valid(self):
        EngineConf().validate()

    def test_environment_does_not_arm_features(self, monkeypatch):
        # Only REPRO_TRANSPORT and REPRO_EXECUTOR_BACKEND pick defaults;
        # every feature is armed by its conf alone.
        for name, value in (
            ("REPRO_TELEMETRY", "1"),
            ("REPRO_ELASTIC", "1"),
            ("REPRO_HA", "1"),
            ("REPRO_CHAOS_SEED", "abc"),
            ("REPRO_CHAOS_PROFILE", "net"),
        ):
            monkeypatch.setenv(name, value)
        conf = EngineConf()
        conf.validate()
        assert not conf.telemetry.enabled
        assert not conf.elastic.enabled
        assert not conf.ha.enabled
        assert not conf.chaos.enabled
        assert (conf.chaos.seed, conf.chaos.profile) == (0, "mixed")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_workers": 0},
            {"slots_per_worker": 0},
            {"group_size": 0},
            {"checkpoint_interval_batches": -1},
            {"monitor": MonitorConf(heartbeat_interval_s=0)},
            {
                "monitor": MonitorConf(
                    heartbeat_interval_s=1.0, heartbeat_timeout_s=0.5
                )
            },
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            EngineConf(**kwargs).validate()

    def test_per_batch_mode_normalizes_group_size(self):
        conf = EngineConf(scheduling_mode=SchedulingMode.PER_BATCH, group_size=10)
        conf.validate()
        assert conf.group_size == 1

    def test_total_slots(self):
        assert EngineConf(num_workers=3, slots_per_worker=4).total_slots == 12

    def test_effective_checkpoint_interval_defaults_to_group(self):
        conf = EngineConf(group_size=7)
        assert conf.effective_checkpoint_interval() == 7
        conf2 = EngineConf(group_size=7, checkpoint_interval_batches=3)
        assert conf2.effective_checkpoint_interval() == 3


class TestTracingConf:
    def test_defaults_off(self):
        conf = EngineConf()
        conf.validate()
        assert conf.tracing.enabled is False

    def test_invalid_max_events_rejected(self):
        with pytest.raises(ConfigError):
            EngineConf(tracing=TracingConf(enabled=True, max_events=0)).validate()

    def test_enabled_conf_valid(self):
        EngineConf(tracing=TracingConf(enabled=True, max_events=100)).validate()


class TestTunerConf:
    def test_defaults_valid(self):
        TunerConf().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"overhead_lower_bound": 0.5, "overhead_upper_bound": 0.2},
            {"overhead_lower_bound": -0.1},
            {"overhead_upper_bound": 1.5},
            {"increase_factor": 1.0},
            {"min_group_size": 0},
            {"min_group_size": 10, "max_group_size": 5},
            {"ewma_alpha": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TunerConf(**kwargs).validate()

"""Tests for the cluster-wide live telemetry plane (repro.obs.live).

Covers the delta snapshotter, the driver-side time-series store and its
derived signals, both shipping paths (heartbeat piggyback and the
dedicated ``__metrics__`` plumbing) on both transports, staleness under
worker loss, the SLO watchdog, the HTTP/serve surface, and the
``python -m repro.obs top/serve`` CLI entry points.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.chaos.injector import ChaosInjector, install, uninstall
from repro.chaos.plan import (
    KIND_WORKER_KILL,
    SITE_WORKER_TASK,
    FaultEvent,
    FaultPlan,
)
from repro.common.clock import ManualClock
from repro.common.config import (
    EngineConf,
    MonitorConf,
    SchedulingMode,
    TelemetryConf,
    TransportConf,
)
from repro.common.metrics import (
    COUNT_RPC_MESSAGES,
    COUNT_SLO_VIOLATIONS,
    COUNT_TELEMETRY_RECORDS,
    COUNT_TELEMETRY_TASKS,
    GAUGE_TELEMETRY_BACKLOG,
    HIST_TELEMETRY_QUEUE_DELAY,
    TIME_SCHEDULING,
    TIME_TASK_TRANSFER,
    MetricsRegistry,
)
from repro.dag.dataset import parallelize
from repro.dag.plan import compile_plan, dict_action
from repro.engine.cluster import LocalCluster
from repro.obs.live import DRIVER_TIMELINE, ClusterTelemetry, DeltaSnapshotter
from repro.obs.names import EVENT_SLO_VIOLATION
from repro.obs.serve import TelemetryHTTPServer, snapshot_doc, write_snapshot
from repro.obs.top import render_dashboard
from repro.obs.trace import TraceRecorder


def wordcount_plan(n=60, parts=4, reds=3):
    ds = (
        parallelize([f"w{i % 7}" for i in range(n)], parts)
        .map(lambda w: (w, 1))
        .reduce_by_key(lambda a, b: a + b, reds)
    )
    return compile_plan(ds, dict_action())


def make_conf(hb=True, transport="inproc", **kwargs):
    defaults = dict(
        num_workers=2,
        slots_per_worker=2,
        scheduling_mode=SchedulingMode.DRIZZLE,
        group_size=2,
        transport=TransportConf(backend=transport),
        monitor=MonitorConf(
            enable_heartbeats=hb,
            heartbeat_interval_s=0.02,
            heartbeat_timeout_s=0.5,
        ),
        telemetry=TelemetryConf(enabled=True, interval_s=0.02),
    )
    defaults.update(kwargs)
    return EngineConf(**defaults)


def wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestDeltaSnapshotter:
    def test_counter_increments_only(self):
        reg = MetricsRegistry()
        snap = DeltaSnapshotter(reg)
        reg.counter("telemetry.tasks").add(3)
        assert snap.delta()["counters"] == {"telemetry.tasks": 3.0}
        reg.counter("telemetry.tasks").add(2)
        assert snap.delta()["counters"] == {"telemetry.tasks": 2.0}

    def test_no_change_returns_none(self):
        reg = MetricsRegistry()
        snap = DeltaSnapshotter(reg)
        assert snap.delta() is None
        reg.counter("telemetry.tasks").add(1)
        assert snap.delta() is not None
        assert snap.delta() is None

    def test_gauges_ship_only_when_changed(self):
        reg = MetricsRegistry()
        snap = DeltaSnapshotter(reg)
        reg.gauge(GAUGE_TELEMETRY_BACKLOG).set(4)
        assert snap.delta()["gauges"] == {GAUGE_TELEMETRY_BACKLOG: 4.0}
        reg.gauge(GAUGE_TELEMETRY_BACKLOG).set(4)  # unchanged value
        assert snap.delta() is None
        reg.gauge(GAUGE_TELEMETRY_BACKLOG).set(0)
        assert snap.delta()["gauges"] == {GAUGE_TELEMETRY_BACKLOG: 0.0}

    def test_histogram_cursor_ships_new_samples_once(self):
        reg = MetricsRegistry()
        snap = DeltaSnapshotter(reg)
        hist = reg.histogram(HIST_TELEMETRY_QUEUE_DELAY)
        hist.record(0.1)
        hist.record(0.2)
        assert snap.delta()["samples"] == {HIST_TELEMETRY_QUEUE_DELAY: [0.1, 0.2]}
        hist.record(0.3)
        assert snap.delta()["samples"] == {HIST_TELEMETRY_QUEUE_DELAY: [0.3]}

    def test_sample_cap_spills_to_next_delta(self):
        reg = MetricsRegistry()
        snap = DeltaSnapshotter(reg, max_samples=2)
        hist = reg.histogram(HIST_TELEMETRY_QUEUE_DELAY)
        for i in range(5):
            hist.record(float(i))
        assert snap.delta()["samples"][HIST_TELEMETRY_QUEUE_DELAY] == [0.0, 1.0]
        assert snap.delta()["samples"][HIST_TELEMETRY_QUEUE_DELAY] == [2.0, 3.0]
        assert snap.delta()["samples"][HIST_TELEMETRY_QUEUE_DELAY] == [4.0]

    def test_registry_reset_is_a_fresh_start_not_an_error(self):
        reg = MetricsRegistry()
        snap = DeltaSnapshotter(reg)
        reg.counter("telemetry.tasks").add(5)
        reg.histogram(HIST_TELEMETRY_QUEUE_DELAY).record(1.0)
        reg.histogram(HIST_TELEMETRY_QUEUE_DELAY).record(1.5)
        snap.delta()
        reg.reset()
        reg.counter("telemetry.tasks").add(2)
        reg.histogram(HIST_TELEMETRY_QUEUE_DELAY).record(2.0)
        delta = snap.delta()
        assert delta["counters"] == {"telemetry.tasks": 2.0}
        # Cursor (2) is past the post-reset end (1) -> treated as a fresh
        # start and the new sample ships from position 0.
        assert delta["samples"] == {HIST_TELEMETRY_QUEUE_DELAY: [2.0]}

    def test_deltas_match_slicing_a_full_copy(self):
        reg = MetricsRegistry()
        snap = DeltaSnapshotter(reg, max_samples=7)
        hist = reg.histogram(HIST_TELEMETRY_QUEUE_DELAY)
        cursor, recorded = 0, 0
        for burst in (3, 0, 12, 7, 1, 20, 0, 5):
            for _ in range(burst):
                hist.record(recorded * 0.25)
                recorded += 1
            delta = snap.delta()
            expected = hist.snapshot()[cursor : cursor + 7]
            cursor += len(expected)
            shipped = (delta or {}).get("samples", {}).get(HIST_TELEMETRY_QUEUE_DELAY, [])
            assert shipped == expected

    def test_a_delta_copies_only_the_new_samples(self):
        import tracemalloc

        reg = MetricsRegistry()
        snap = DeltaSnapshotter(reg, max_samples=250_000)
        hist = reg.histogram(HIST_TELEMETRY_QUEUE_DELAY)
        for i in range(200_000):
            hist.record(i * 1e-6)
        assert len(snap.delta()["samples"][HIST_TELEMETRY_QUEUE_DELAY]) == 200_000
        for i in range(10):
            hist.record(1.0 + i)
        tracemalloc.start()
        try:
            delta = snap.delta()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert delta["samples"][HIST_TELEMETRY_QUEUE_DELAY] == [1.0 + i for i in range(10)]
        assert peak < 64 * 1024, peak  # a full copy is 200k pointers: 1.6 MB

    def test_sequence_numbers_increase(self):
        reg = MetricsRegistry()
        snap = DeltaSnapshotter(reg)
        reg.counter("telemetry.tasks").add(1)
        first = snap.delta()
        reg.counter("telemetry.tasks").add(1)
        second = snap.delta()
        assert second["seq"] == first["seq"] + 1


class TestClusterTelemetryStore:
    def make_store(self, **kwargs):
        clock = ManualClock(start=100.0)
        store = ClusterTelemetry(
            TelemetryConf(enabled=True, interval_s=0.05),
            clock=clock,
            driver_metrics=MetricsRegistry(clock),
            stale_after_s=kwargs.pop("stale_after_s", 1.0),
            **kwargs,
        )
        return store, clock

    def test_ingest_merges_counters_and_samples(self):
        store, _clock = self.make_store()
        store.ingest(
            "w0",
            {
                "seq": 1,
                "counters": {COUNT_TELEMETRY_TASKS: 2.0},
                "gauges": {GAUGE_TELEMETRY_BACKLOG: 1.0},
                "samples": {HIST_TELEMETRY_QUEUE_DELAY: [0.01, 0.02]},
            },
        )
        store.ingest("w0", {"seq": 2, "counters": {COUNT_TELEMETRY_TASKS: 3.0}})
        rollup = store.rollup()
        w0 = rollup["workers"]["w0"]
        assert w0["counters"][COUNT_TELEMETRY_TASKS] == 5.0
        assert w0["gauges"][GAUGE_TELEMETRY_BACKLOG] == 1.0
        assert w0["histograms"][HIST_TELEMETRY_QUEUE_DELAY]["count"] == 2
        assert rollup["cluster"]["counters"][COUNT_TELEMETRY_TASKS] == 5.0

    def test_empty_delta_refreshes_liveness(self):
        store, clock = self.make_store()
        store.ingest("w0", {"seq": 1, "counters": {COUNT_TELEMETRY_TASKS: 1.0}})
        clock.advance(0.9)
        store.ingest("w0", None)  # heartbeat with nothing new
        clock.advance(0.9)
        assert store.stale_workers() == []  # refreshed at t+0.9
        clock.advance(0.2)
        assert store.stale_workers() == ["w0"]

    def test_stale_worker_excluded_from_rollup_and_signals(self):
        store, clock = self.make_store()
        store.ingest("w0", {"seq": 1, "counters": {COUNT_TELEMETRY_TASKS: 4.0}})
        store.ingest("w1", {"seq": 1, "counters": {COUNT_TELEMETRY_TASKS: 6.0}})
        clock.advance(0.5)
        store.ingest("w1", None)
        clock.advance(0.7)  # w0 last seen 1.2s ago, w1 0.7s ago
        rollup = store.rollup()
        assert rollup["stale_workers"] == ["w0"]
        assert rollup["cluster"]["counters"][COUNT_TELEMETRY_TASKS] == 6.0
        assert rollup["workers"]["w0"]["stale"] is True
        sig = store.signals()
        assert sig["live_workers"] == ["w1"]
        assert sig["stale_workers"] == ["w0"]

    def test_windowed_rates(self):
        store, clock = self.make_store()
        store.ingest("w0", {"seq": 1, "counters": {COUNT_TELEMETRY_TASKS: 10.0}})
        clock.advance(2.0)
        store.ingest("w0", {"seq": 2, "counters": {COUNT_TELEMETRY_TASKS: 10.0}})
        sig = store.signals(window_s=10.0)
        # 20 tasks over the timeline's 2s life inside a 10s window.
        assert sig["tasks_per_s"] == pytest.approx(10.0)

    def test_fault_annotation_lands_on_timeline(self):
        store, _clock = self.make_store()
        store.ingest("w0", {"seq": 1, "counters": {}})
        store.annotate_fault("w0", "worker_kill", "worker.task")
        faults = store.rollup()["workers"]["w0"]["faults"]
        assert faults == [
            {"t": pytest.approx(100.0), "kind": "worker_kill", "site": "worker.task"}
        ]

    def test_fault_on_unknown_worker_starts_stale_timeline(self):
        store, _clock = self.make_store()
        store.annotate_fault("ghost", "worker_kill", "worker.task")
        rollup = store.rollup(include_stale=True)
        assert rollup["workers"]["ghost"]["stale"] is True

    def test_signals_coordination_from_driver_registry(self):
        store, clock = self.make_store()
        reg = store._driver_metrics
        store.poll_driver()
        reg.counter(TIME_SCHEDULING).add(0.3)
        reg.counter(TIME_TASK_TRANSFER).add(0.2)
        clock.advance(1.0)
        sig = store.signals(window_s=10.0)
        coord = sig["coordination"]
        assert coord["coordination_s"] == pytest.approx(0.5)
        assert coord["wall_s"] == pytest.approx(1.0)
        assert coord["overhead"] == pytest.approx(0.5)

    def test_slo_watchdog_fires_counter_and_trace_instant(self):
        clock = ManualClock(start=10.0)
        reg = MetricsRegistry(clock)
        tracer = TraceRecorder(clock=clock)
        store = ClusterTelemetry(
            TelemetryConf(
                enabled=True, interval_s=0.05, slo_queue_delay_p99_ms=5.0
            ),
            clock=clock,
            driver_metrics=reg,
            tracer=tracer,
            stale_after_s=5.0,
        )
        store.ingest(
            "w0",
            {"seq": 1, "samples": {HIST_TELEMETRY_QUEUE_DELAY: [0.5]}},  # 500ms
        )
        assert len(store.violations) == 1
        violation = store.violations[0]
        assert violation["signal"] == "queueing_delay_p99_ms"
        assert violation["value"] == pytest.approx(500.0)
        assert reg.counter(COUNT_SLO_VIOLATIONS).value == 1
        assert any(e["name"] == EVENT_SLO_VIOLATION for e in tracer.events())
        sig = store.signals()
        assert sig["slo"]["violations"] == 1

    def test_slo_check_is_rate_limited(self):
        clock = ManualClock(start=10.0)
        store = ClusterTelemetry(
            TelemetryConf(enabled=True, interval_s=1.0, slo_queue_delay_p99_ms=5.0),
            clock=clock,
            driver_metrics=MetricsRegistry(clock),
            stale_after_s=60.0,
        )
        for seq in range(5):  # all at the same instant: one check only
            store.ingest(
                "w0",
                {"seq": seq, "samples": {HIST_TELEMETRY_QUEUE_DELAY: [0.5]}},
            )
        assert len(store.violations) == 1


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
@pytest.mark.parametrize("hb", [True, False], ids=["heartbeats", "metrics-rpc"])
class TestShippingEndToEnd:
    def test_worker_metrics_reach_the_driver(self, transport, hb):
        with LocalCluster(make_conf(hb=hb, transport=transport)) as cluster:
            cluster.run_plan(wordcount_plan())
            assert wait_for(
                lambda: cluster.telemetry.rollup()["cluster"]["counters"].get(
                    COUNT_TELEMETRY_TASKS, 0
                )
                >= 7  # 4 map + 3 reduce tasks
            )
            rollup = cluster.telemetry.rollup()
            workers = [w for w in rollup["workers"] if w != DRIVER_TIMELINE]
            assert sorted(workers) == ["worker-0", "worker-1"]
            assert rollup["cluster"]["counters"][COUNT_TELEMETRY_RECORDS] > 0
            # Every worker that ran tasks shipped queue-delay samples.
            merged = rollup["cluster"]["histograms"]
            assert merged[HIST_TELEMETRY_QUEUE_DELAY]["count"] >= 7
            sig = cluster.telemetry.signals()
            assert sig["queueing_delay_ms"]["count"] >= 7
            assert sig["stage_latency_ms"]  # per-stage percentiles present

    def test_dashboard_renders_counters(self, transport, hb):
        with LocalCluster(make_conf(hb=hb, transport=transport)) as cluster:
            cluster.run_plan(wordcount_plan())
            assert wait_for(
                lambda: cluster.telemetry.rollup()["cluster"]["counters"].get(
                    COUNT_TELEMETRY_TASKS, 0
                )
                >= 7
            )
            frame = render_dashboard(cluster.telemetry)
            assert "worker-0" in frame and "worker-1" in frame
            assert "queueing delay ms" in frame
            assert "p99" in frame


class TestShippingIsUncountedPlumbing:
    def test_metrics_rpc_does_not_touch_rpc_message_count(self):
        # The dedicated __metrics__ path (heartbeats off) must be
        # invisible to the engine's message accounting, on both backends.
        for transport in ("inproc", "tcp"):
            with LocalCluster(make_conf(hb=False, transport=transport)) as cluster:
                cluster.run_plan(wordcount_plan())
                worker = cluster.workers["worker-0"]
                before = cluster.metrics.counter(COUNT_RPC_MESSAGES).value
                assert worker.ship_telemetry() is True
                after = cluster.metrics.counter(COUNT_RPC_MESSAGES).value
                assert after == before, transport

    def test_disabled_conf_means_no_worker_registry(self):
        conf = make_conf()
        conf.telemetry.enabled = False
        with LocalCluster(conf) as cluster:
            assert cluster.telemetry is None
            worker = cluster.workers["worker-0"]
            assert worker.telemetry_metrics is None
            assert worker.ship_telemetry() is False
            cluster.run_plan(wordcount_plan())  # still computes fine


class TestTelemetryUnderWorkerLoss:
    def test_killed_worker_goes_stale_and_rollups_exclude_it(self):
        # Satellite: a worker killed mid-run (chaos worker_kill) stops
        # updating its timeline, is marked stale after the heartbeat
        # timeout, and rollups/signals exclude it without raising.
        conf = make_conf(hb=True, num_workers=3, group_size=1)
        with LocalCluster(conf) as cluster:
            inj = ChaosInjector(
                FaultPlan(
                    [FaultEvent(0, SITE_WORKER_TASK, KIND_WORKER_KILL, at_hit=2)]
                ),
                metrics=cluster.metrics,
                telemetry=cluster.telemetry,
                kill_budget=1,
            )
            install(inj)
            try:
                out = cluster.run_plan(wordcount_plan())
                assert inj.injected_count == 1
            finally:
                uninstall(inj)
            assert out  # recovery produced a result
            dead = [w for w, obj in cluster.workers.items() if obj.is_dead]
            assert len(dead) == 1
            victim = dead[0]
            # The injector pinned the fault onto the victim's timeline.
            assert wait_for(
                lambda: any(
                    f["kind"] == KIND_WORKER_KILL
                    for f in cluster.telemetry.rollup(include_stale=True)[
                        "workers"
                    ]
                    .get(victim, {"faults": []})["faults"]
                )
            )
            # Past the heartbeat timeout the victim reads stale...
            assert wait_for(lambda: victim in cluster.telemetry.stale_workers())
            rollup = cluster.telemetry.rollup()
            assert victim in rollup["stale_workers"]
            # ...and the cluster merge only sums the survivors.
            survivors_tasks = sum(
                state["counters"].get(COUNT_TELEMETRY_TASKS, 0)
                for worker_id, state in rollup["workers"].items()
                if worker_id != DRIVER_TIMELINE and not state["stale"]
            )
            assert rollup["cluster"]["counters"].get(
                COUNT_TELEMETRY_TASKS, 0
            ) == pytest.approx(survivors_tasks)
            # signals() must not raise with a stale member present.
            sig = cluster.telemetry.signals()
            assert victim in sig["stale_workers"]


class TestServeSurface:
    def test_http_endpoints(self):
        with LocalCluster(make_conf()) as cluster:
            cluster.run_plan(wordcount_plan())
            wait_for(
                lambda: cluster.telemetry.rollup()["cluster"]["counters"].get(
                    COUNT_TELEMETRY_TASKS, 0
                )
                >= 7
            )
            with TelemetryHTTPServer(cluster.telemetry, port=0) as server:
                def get(path):
                    with urllib.request.urlopen(server.url + path, timeout=10) as r:
                        assert r.headers["Content-Type"] == "application/json"
                        return json.loads(r.read().decode("utf-8"))

                doc = get("/")
                assert doc["version"] == 1
                assert "rollup" in doc and "signals" in doc
                rollup = get("/rollup")
                assert COUNT_TELEMETRY_TASKS in rollup["cluster"]["counters"]
                signals = get("/signals")
                assert signals["queueing_delay_ms"]["count"] >= 7
                health = get("/healthz")
                assert health["ok"] is True and health["live_workers"] == 2
                with pytest.raises(urllib.error.HTTPError):
                    get("/nope")

    def test_snapshot_doc_and_file(self, tmp_path):
        with LocalCluster(make_conf()) as cluster:
            cluster.run_plan(wordcount_plan())
            doc = snapshot_doc(cluster.telemetry)
            assert set(doc) == {"version", "rollup", "signals"}
            path = tmp_path / "snap.json"
            write_snapshot(cluster.telemetry, str(path))
            on_disk = json.loads(path.read_text())
            assert on_disk["version"] == 1
            json.dumps(on_disk)  # fully JSON-serializable


class TestCli:
    def test_top_once(self, capsys):
        from repro.obs.__main__ import main

        rc = main(
            ["top", "--once", "--workers", "2", "--batches", "3", "--interval", "0.1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro.obs top" in out
        assert "worker-0" in out
        assert "queueing delay ms" in out

    def test_serve_snapshot_file(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = tmp_path / "obs.json"
        rc = main(
            ["serve", "--snapshot", str(path), "--batches", "3", "--no-heartbeats"]
        )
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["signals"]["queueing_delay_ms"]["count"] > 0
        workers = [
            w for w in doc["rollup"]["workers"] if w != DRIVER_TIMELINE
        ]
        assert workers

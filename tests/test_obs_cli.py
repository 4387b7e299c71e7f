"""Exporter and CLI tests: Perfetto/JSONL round trips, trace_event
validity, the ``python -m repro.obs`` commands, and the acceptance
contract that span totals from a real run agree with the engine's
metrics counters to within 5%."""

import json

import pytest

from repro.common.config import SchedulingMode, TracingConf
from repro.obs.__main__ import main as obs_main
from repro.obs.analyze import phase_totals
from repro.obs.export import load_trace, to_trace_events, write_jsonl, write_perfetto
from repro.obs.names import (
    SPAN_TASK_COMPUTE,
    SPAN_TASK_LAUNCH_RPC,
    SPAN_TASK_SCHEDULE,
    SPAN_TO_METRIC,
)

from engine_test_utils import make_cluster
from test_obs_propagation import keyed_plan

TRACED = TracingConf(enabled=True)


@pytest.fixture(scope="module")
def traced_run():
    """One traced engine run shared by the read-only tests below."""
    with make_cluster(SchedulingMode.DRIZZLE, tracing=TRACED, group_size=3) as cluster:
        plans = [keyed_plan(offset=b) for b in range(3)]
        cluster.run_group(plans)
        events = cluster.tracer.events()
        counters = cluster.metrics.counters_snapshot()
    assert events
    return events, counters


class TestPerfettoValidity:
    def test_document_shape(self, traced_run):
        events, _ = traced_run
        doc = to_trace_events(events)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        entries = doc["traceEvents"]
        metadata = [e for e in entries if e["ph"] == "M"]
        durations = [e for e in entries if e["ph"] == "X"]
        instants = [e for e in entries if e["ph"] == "i"]
        assert len(metadata) + len(durations) + len(instants) == len(entries)
        # Every actor gets a process_name metadata record; every event's
        # pid resolves to one of them.
        named_pids = {e["pid"]: e["args"]["name"] for e in metadata}
        actors = {e["actor"] for e in events}
        assert set(named_pids.values()) == actors
        for entry in durations + instants:
            assert entry["pid"] in named_pids
            assert entry["ts"] >= 0  # microseconds
        for entry in durations:
            assert entry["dur"] >= 0
        for entry in instants:
            assert entry["s"] == "t"

    def test_driver_is_process_one(self, traced_run):
        events, _ = traced_run
        doc = to_trace_events(events)
        first_meta = next(e for e in doc["traceEvents"] if e["ph"] == "M")
        assert first_meta == {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "driver"},
        }

    def test_file_is_plain_json(self, traced_run, tmp_path):
        events, _ = traced_run
        path = str(tmp_path / "trace.json")
        write_perfetto(events, path)
        with open(path) as f:
            doc = json.load(f)  # must parse standalone, no trailing junk
        assert len(doc["traceEvents"]) >= len(events)


class TestRoundTrips:
    def test_perfetto_round_trip_is_lossless(self, traced_run, tmp_path):
        events, _ = traced_run
        path = str(tmp_path / "trace.json")
        write_perfetto(events, path)
        loaded = load_trace(path)
        assert len(loaded) == len(events)
        for orig, back in zip(events, loaded):
            assert back["name"] == orig["name"]
            assert back["trace_id"] == orig["trace_id"]
            assert back["span_id"] == orig["span_id"]
            assert back["parent_id"] == orig["parent_id"]
            assert back["actor"] == orig["actor"]
            assert back["ts"] == pytest.approx(orig["ts"], abs=1e-9)
            assert back["dur"] == pytest.approx(orig["dur"], abs=1e-9)
            assert back["attrs"] == {k: _jsonify(v) for k, v in orig["attrs"].items()}

    def test_jsonl_round_trip_is_identical(self, traced_run, tmp_path):
        events, _ = traced_run
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(events, path)
        assert load_trace(path) == json.loads(json.dumps(events, default=str))

    def test_load_bare_trace_event_array(self, traced_run, tmp_path):
        events, _ = traced_run
        path = str(tmp_path / "bare.json")
        with open(path, "w") as f:
            json.dump(to_trace_events(events)["traceEvents"], f, default=str)
        assert len(load_trace(path)) == len(events)

    def test_load_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        assert load_trace(path) == []


def _jsonify(value):
    return json.loads(json.dumps(value, default=str))


class TestCli:
    def test_summarize_totals_agree_with_counters(self, traced_run, tmp_path, capsys):
        """Acceptance criterion: per-phase span totals reported by the CLI
        agree with the engine's MetricsRegistry counters within 5%."""
        events, counters = traced_run
        path = str(tmp_path / "trace.json")
        write_perfetto(events, path)
        assert obs_main(["summarize", path]) == 0
        out = capsys.readouterr().out
        assert "Per-phase totals" in out
        assert "Per-batch breakdown" in out
        assert "Per-worker breakdown" in out
        assert "3 batches" in out

        totals = phase_totals(load_trace(path))
        for span_name, metric_name in SPAN_TO_METRIC.items():
            counter_val = counters[metric_name]
            assert counter_val > 0
            assert totals[span_name] == pytest.approx(counter_val, rel=0.05), (
                f"{span_name} vs {metric_name}"
            )

    def test_tree_shows_propagated_structure(self, traced_run, tmp_path, capsys):
        events, _ = traced_run
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(events, path)
        assert obs_main(["tree", path]) == 0
        out = capsys.readouterr().out
        assert "batch" in out and "task.compute" in out

        # Restricting to one trace id prints only that trace.
        batch_tid = next(e["trace_id"] for e in events if e["name"] == "batch")
        assert obs_main(["tree", path, "--trace-id", batch_tid]) == 0
        out = capsys.readouterr().out
        assert out.count("trace ") == 1
        assert f"trace {batch_tid}" in out

    def test_convert_both_directions(self, traced_run, tmp_path, capsys):
        events, _ = traced_run
        jsonl = str(tmp_path / "a.jsonl")
        perfetto = str(tmp_path / "b.json")
        back = str(tmp_path / "c.jsonl")
        write_jsonl(events, jsonl)
        assert obs_main(["convert", jsonl, "-o", perfetto]) == 0
        assert obs_main(["convert", perfetto, "-o", back, "--format", "jsonl"]) == 0
        capsys.readouterr()
        assert len(load_trace(back)) == len(events)

    def test_empty_trace_exits_nonzero(self, tmp_path, capsys):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        assert obs_main(["summarize", path]) == 1
        assert "trace is empty" in capsys.readouterr().out


class TestClusterExport:
    def test_export_trace_formats(self, tmp_path):
        with make_cluster(SchedulingMode.DRIZZLE, tracing=TRACED) as cluster:
            cluster.run_plan(keyed_plan())
            n = len(cluster.tracer.events())
            json_path = str(tmp_path / "t.json")
            jsonl_path = str(tmp_path / "t.jsonl")
            assert cluster.export_trace(json_path) == n
            assert cluster.export_trace(jsonl_path, fmt="jsonl") == n
            with pytest.raises(ValueError):
                cluster.export_trace(str(tmp_path / "t.x"), fmt="csv")
        assert len(load_trace(json_path)) == n
        assert len(load_trace(jsonl_path)) == n

    def test_spans_cover_the_whole_pipeline(self, traced_run):
        events, _ = traced_run
        names = {e["name"] for e in events}
        assert {
            SPAN_TASK_SCHEDULE,
            SPAN_TASK_LAUNCH_RPC,
            SPAN_TASK_COMPUTE,
        } <= names

"""Checks of the benchmark harness itself.  Not part of tier-1 (pytest's
``testpaths`` is ``tests``); run it explicitly:

    python -m pytest -q benchmarks/e2e/test_harness.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import probes  # noqa: E402
import report  # noqa: E402
from workloads import (  # noqa: E402
    POOL_BATCHES,
    WORKLOADS,
    FoldingSink,
    check_outputs,
    reference,
)


def test_smoke_run_emits_every_named_metric_with_a_unit(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stderr[-2000:]
    assert elapsed < 30, f"smoke run took {elapsed:.1f}s"
    result = json.loads(out.read_text())
    cat = report.catalogue()
    assert list(result["workloads"]) == [w["name"] for w in cat["workloads"]]
    for name, workload in result["workloads"].items():
        assert workload["ops_failed"] == 0 and workload["ops_attempted"] > 0, name
        assert workload["missing_probes"] == [], name
        for section in ("end_to_end", "per_layer"):
            assert list(workload[section]) == [m["name"] for m in cat[section]]
            for m in cat[section]:
                entry = workload[section][m["name"]]
                assert entry["unit"] == m["unit"]
                assert f"{m['name']} " in done.stdout and m["unit"] in done.stdout
        for m in cat["end_to_end"]:
            assert workload["end_to_end"][m["name"]]["value"] > 0, (name, m["name"])
        for m in report.POOLED:
            assert workload["pooled"][m["name"]]["value"] > 0, (name, m["name"])
            assert f"pooled.{m['name']} " in done.stdout
        assert workload["engine_conf"]["transport"]["backend"] == "tcp"
    assert result["fingerprint"]["seed"] == 3
    assert "transport" not in result["fingerprint"]


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert report.highest_supported_percentile(1000) == 99
    assert report.highest_supported_percentile(999) == 95
    assert report.highest_supported_percentile(200) == 95
    assert report.highest_supported_percentile(199) == 90
    assert report.highest_supported_percentile(100) == 90
    assert report.highest_supported_percentile(99) == 75
    assert report.highest_supported_percentile(5) == 50
    assert report.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert report.percentile(range(101), 95) == 95


def test_span_self_times_sum_to_the_root():
    def span(i, start, end, parent):
        return probes.Span(i, f"s{i}", start, end, parent, thread=1, group=0)

    spans = [
        span(0, 0.0, 10.0, None),
        span(1, 1.0, 4.0, 0),
        span(2, 2.0, 3.0, 1),
        span(3, 5.0, 9.0, 0),
        span(4, 5.5, 6.5, 3),
        span(5, 7.0, 8.0, 3),
    ]
    own = probes.self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0, 5: 1.0}
    assert sum(own.values()) == spans[0].end - spans[0].start


def test_recorder_nests_calls_and_reports_missing_targets():
    recorder = probes.Recorder()

    def inner():
        return 1

    def outer():
        return probed_inner() + 1

    probed_inner = recorder.wrap("inner", inner)
    assert recorder.wrap("outer", outer)() == 2
    by_name = {s.name: s for s in recorder.spans()}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    missing = probes.Recorder().install(
        [("m.gone_ms_per_batch", "repro.no_such_module", "f"),
         ("m.gone_ms_per_batch", "json", "no_such.attr")]
    )
    assert missing == ["repro.no_such_module:f", "json:no_such.attr"]


def test_oracle_accepts_the_reference_and_rejects_a_corrupted_state():
    for workload in WORKLOADS.values():
        pool = workload.make_pool(seed=11)
        contributions = reference(workload, pool)
        n_batches = 70  # one full cycle and a bit, so multiplicities differ

        # Replay the reference batch by batch, as the engine would.
        state: dict = {}
        sink = FoldingSink(workload.fold_sink)
        for b in range(n_batches):
            for key, value in contributions[b % POOL_BATCHES].items():
                state[key] = workload.merge(state[key], value) if key in state else value
            if workload.name.startswith("yahoo"):
                sink.commit(b, [])
            elif workload.name == "video_shuffle":
                sink.commit(b, sorted(contributions[b % POOL_BATCHES]))
            else:
                sink.commit(b, [len(state)])
        good = dict(
            n_batches=n_batches,
            state=state,
            sink_order=sink.order,
            sink_totals=sink.totals,
            duplicate_commits=0,
        )
        assert check_outputs(workload, contributions, **good) == [], workload.name

        corrupted = dict(state)
        victim = next(iter(corrupted))
        corrupted[victim] = workload.merge(corrupted[victim], corrupted[victim])
        errors = check_outputs(workload, contributions, **{**good, "state": corrupted})
        assert errors and "state differs" in errors[0], workload.name

        out_of_order = [1, 0] + sink.order[2:]
        assert check_outputs(workload, contributions, **{**good, "sink_order": out_of_order})
        assert check_outputs(workload, contributions, **{**good, "duplicate_commits": 1})


def _result(p50, rounds, pooled_p95=12.0, pooled_rounds=(12.0,) * 5, tail=95, seed=1):
    cat = report.catalogue()
    end_to_end = {
        m["name"]: {"value": 10.0, "unit": m["unit"], "rounds": [10.0] * 5, "spread": 0.0}
        for m in cat["end_to_end"]
    }
    end_to_end["batch_ms_p50"] = {
        "value": p50, "unit": "ms", "rounds": rounds,
        "spread": report.floor_gap(rounds, "lower"),
    }
    pooled = {
        m["name"]: {"value": 10.0, "unit": m["unit"], "rounds": [10.0] * 5, "spread": 0.0}
        for m in report.POOLED
    }
    pooled["batch_ms_p95"] = {
        "value": pooled_p95, "unit": "ms", "rounds": list(pooled_rounds),
        "spread": report.quartile_spread(pooled_rounds),
    }
    pooled.update(samples=250, tail_percentile=tail)
    per_layer = {name: {"value": 18.2, "unit": "count"} for name in report.EXACT}
    workload = {"end_to_end": end_to_end, "pooled": pooled, "per_layer": per_layer}
    fingerprint = {key: "same" for key in report.SAME_RUN_SHAPE}
    fingerprint["seed"] = seed
    return {"fingerprint": fingerprint, "workloads": {"w": workload}}


def _verdicts(a, b):
    return {r["metric"]: r["verdict"] for r in report.compare(a, b)}


def test_compare_marks_ok_regressed_and_unresolved():
    cat = report.catalogue()
    bound = next(m["bound"] for m in cat["end_to_end"] if m["name"] == "batch_ms_p50")
    steady = [9.9, 10.0, 10.0, 10.0, 10.1]
    noisy = [10.0 * (1 + bound * k) for k in (0, 2, 3, 4, 5)]  # the best round stands alone
    base = _result(10.0, steady)
    assert set(_verdicts(base, _result(10.0 * (1 + bound / 2), steady)).values()) == {"ok"}
    assert _verdicts(base, _result(10.0 * (1 + bound * 1.5), steady))["batch_ms_p50"] == "regressed"
    assert _verdicts(base, _result(10.0 * (1 + bound * 1.5), noisy))["batch_ms_p50"] == "unresolved"
    changed = _result(10.0, steady)
    changed["workloads"]["w"]["per_layer"]["net.rpc_per_batch"]["value"] = 18.3
    assert _verdicts(base, changed)["net.rpc_per_batch"] == "regressed"


def test_compare_gates_the_pooled_tail_at_the_issues_bound():
    """A stall too rare to reach the quietest window still moves the
    pooled p95, and 20% is past its 15% bound though within the 25% of
    the quiet-window timings."""
    base = _result(10.0, [10.0] * 5)
    assert _verdicts(base, _result(10.0, [10.0] * 5, pooled_p95=14.4))["pooled.batch_ms_p95"] == "regressed"
    assert _verdicts(base, _result(10.0, [10.0] * 5, pooled_p95=13.0))["pooled.batch_ms_p95"] == "ok"
    disturbed = _result(10.0, [10.0] * 5, pooled_p95=14.4, pooled_rounds=(12, 12, 14, 18, 30))
    assert _verdicts(base, disturbed)["pooled.batch_ms_p95"] == "unresolved"
    other_percentile = _result(10.0, [10.0] * 5, tail=90)
    assert _verdicts(base, other_percentile)["pooled.batch_ms_p95"] == "unresolved"


def test_compare_refuses_results_of_different_run_shape(tmp_path):
    paths = []
    for i, seed in enumerate((1, 2)):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(_result(10.0, [10.0] * 5, seed=seed)))
        paths.append(str(path))
    assert report.fingerprint_differences(*(json.loads(Path(p).read_text()) for p in paths)) == [
        "seed: 1 != 2"
    ]
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "compare", *paths], capture_output=True, text=True
    )
    assert done.returncode == 2 and "seed: 1 != 2" in done.stderr
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "compare", paths[0], paths[0]],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_metrics_are_formed_from_rounds_as_documented():
    workload = WORKLOADS["yahoo_coord"]
    quiet = [3.0] * 30
    stalled = [3.0, 3.0, 3.0, 9.0] * 8  # a stall every 4th group reaches every window
    rare = [3.0] * 19 + [9.0] + [3.0] * 20  # one stall in 40 groups reaches none of the last

    def round_(samples):
        return {"samples_ms": samples, "setup_s": 0.2, "peak_rss_mb": 50.0}

    def metrics(samples):
        rounds = [round_(samples)] * 5
        return report.end_to_end_metrics(workload, rounds), report.pooled_metrics(workload, rounds)

    e2e, pooled = metrics(quiet)
    assert e2e["batch_ms_p50"]["value"] == e2e["batch_ms_quiet_p95"]["value"] == 3.0
    assert e2e["records_per_s"]["value"] == pooled["records_per_s"]["value"]
    assert e2e["records_per_s"]["value"] == workload.records_per_batch * 1e3 / 3.0
    e2e, pooled = metrics(stalled)
    assert e2e["batch_ms_quiet_p95"]["value"] == 9.0 and e2e["batch_ms_p50"]["value"] == 3.0
    e2e, pooled = metrics(rare)
    assert e2e["batch_ms_quiet_p95"]["value"] == 3.0  # the quiet window does not see it
    assert pooled["tail_percentile"] == 95 and pooled["samples"] == 200
    assert pooled["records_per_s"]["value"] < e2e["records_per_s"]["value"]  # the pooled mean does

"""Tests for the benchmark harness: figure functions + reporting."""

import pytest

from repro.bench.figures import (
    ablation_pipelined,
    ablation_treereduce,
    fig4a_group_scheduling,
    fig4b_breakdown,
    fig5a_heavy_compute,
    fig5b_prescheduling,
    fig7_fault_tolerance,
    fig9_workload_comparison,
    group_tuning_trace,
    table2_query_analysis,
    throughput_vs_latency,
    yahoo_latency_cdf,
)
from repro.bench.reporting import latency_summary_row, render_cdf, render_table


class TestMicrobenchFigures:
    def test_fig4a_shape(self):
        rows = fig4a_group_scheduling(machine_counts=(4, 128))
        assert [r["machines"] for r in rows] == [4, 128]
        for row in rows:
            assert row["drizzle_g100_ms"] < row["drizzle_g25_ms"] < row["spark_ms"]
        assert rows[1]["speedup_g100"] > rows[0]["speedup_g100"]

    def test_fig4b_breakdown(self):
        rows = fig4b_breakdown()
        by_system = {r["system"]: r for r in rows}
        spark = by_system["Spark"]
        drizzle = by_system["Drizzle, Group=100"]
        assert drizzle["scheduler_delay_ms"] < spark["scheduler_delay_ms"] / 5
        assert drizzle["compute_ms"] == spark["compute_ms"]

    def test_fig5a_diminishing_returns(self):
        rows = fig5a_heavy_compute(machine_counts=(128,))
        row = rows[0]
        # Compute dominates: g=25 is within ~10% of g=100.
        assert row["g25_vs_g100_gap_ms"] / row["drizzle_g100_ms"] < 0.10

    def test_fig5b_ordering(self):
        rows = fig5b_prescheduling(machine_counts=(128,))
        row = rows[0]
        assert row["pre_g100_ms"] < row["pre_g10_ms"] < row["only_pre_ms"] <= row["spark_ms"]
        assert 2.0 < row["speedup_g100"] < 6.5


class TestStreamingFigures:
    def test_yahoo_cdf_unoptimized(self):
        series = yahoo_latency_cdf(optimized=False, duration_s=120)
        assert set(series) == {"drizzle", "spark", "flink"}
        assert all(series[k] for k in series)

    def test_fig7_results(self):
        results = fig7_fault_tolerance(duration_s=350)
        by_system = {r.system: r for r in results}
        assert by_system["flink"].spike_s > 5 * by_system["drizzle"].spike_s
        assert by_system["drizzle"].windows_disrupted <= 2
        assert by_system["flink"].windows_disrupted >= 3
        assert by_system["flink"].recovery_time_s > by_system["drizzle"].recovery_time_s

    def test_fig9(self):
        series = fig9_workload_comparison(duration_s=120)
        assert set(series) == {"drizzle_yahoo", "drizzle_video"}

    def test_throughput_rows(self):
        rows = throughput_vs_latency(optimized=False, targets_s=(0.25, 1.0))
        assert rows[0]["spark_Mev_s"] == 0.0
        assert rows[0]["drizzle_Mev_s"] > 10.0
        assert rows[1]["spark_Mev_s"] > 0.0


class TestTable2AndAblations:
    def test_table2(self):
        out = table2_query_analysis(num_queries=20_000, seed=1)
        assert out["total_queries"] == 20_000
        assert 0.22 < out["aggregation_fraction"] < 0.28
        # 95.09 % in expectation; allow sampling noise at 20k queries.
        assert out["partial_merge_fraction"] > 0.94
        assert abs(out["percentages"]["First/Last"] - 25.9) < 2.5

    def test_tuning_trace_adapts(self):
        rows = group_tuning_trace()
        sizes = [r["group_size"] for r in rows]
        phase1_end = sizes[79]
        phase2_end = sizes[159]
        phase3_end = sizes[239]
        assert phase2_end > phase1_end  # bigger cluster -> bigger groups
        assert phase3_end < phase2_end  # shrinks back afterwards
        # Overhead ends near/inside the band in every phase.
        for idx in (79, 159, 239):
            assert rows[idx]["overhead"] < 0.30

    def test_ablation_pipelined(self):
        rows = ablation_pipelined(machine_counts=(4, 128))
        big = rows[-1]
        assert big["pipelined_ms"] > 5 * big["drizzle_g100_ms"]
        assert big["sched_dominates"]

    def test_ablation_treereduce(self):
        out = ablation_treereduce(num_maps=128, fan_in=2)
        assert out["mean_activation_tree"] < out["mean_activation_all_to_all"]
        assert out["speedup"] > 1.2


class TestReporting:
    def test_render_table_aligned(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["xxx", 0.001]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_cdf(self):
        text = render_cdf({"s1": [0.1, 0.2, 0.3], "s2": [0.2, 0.4, 0.6]}, title="L")
        assert "p50" in text
        assert "s1" in text and "s2" in text

    def test_latency_summary_row(self):
        row = latency_summary_row("x", [0.1, 0.2, 0.3])
        assert row[0] == "x"
        assert row[1] == pytest.approx(200.0)  # median in ms


class TestBenchEnvironmentAndBaseline:
    def test_environment_fingerprint_fields(self):
        from repro.bench.reporting import bench_environment

        env = bench_environment()
        assert set(env) >= {"cpu_count", "platform", "python", "git_sha", "transport"}
        assert env["cpu_count"] >= 1
        assert env["transport"]["call_timeout_s"] > 0
        assert "data_plane" not in env["transport"]

    def test_write_bench_json_embeds_environment(self, tmp_path):
        import json

        from repro.bench.reporting import write_bench_json

        path = write_bench_json("envtest", {"rows": []}, out_dir=str(tmp_path))
        with open(path) as f:
            doc = json.load(f)
        assert doc["experiment"] == "envtest"
        assert "git_sha" in doc["environment"]

    def test_load_baseline_rows_from_file_and_dir(self, tmp_path):
        from repro.bench.reporting import load_baseline_rows, write_bench_json

        rows = [{"transport": "tcp", "group_size": 20, "ms_per_batch": 2.0}]
        path = write_bench_json("base", {"rows": rows}, out_dir=str(tmp_path))
        assert load_baseline_rows("base", path) == rows
        assert load_baseline_rows("base", str(tmp_path)) == rows
        assert load_baseline_rows("missing", str(tmp_path)) is None

    def test_diff_against_baseline_flags_regressions_only(self):
        from repro.bench.reporting import diff_against_baseline

        baseline = [
            {"transport": "tcp", "group_size": 20, "ms_per_batch": 2.0},
            {"transport": "tcp", "group_size": 1, "ms_per_batch": 1.0},
            {"transport": "inproc", "group_size": 20, "ms_per_batch": 0.5},
        ]
        current = [
            {"transport": "tcp", "group_size": 20, "ms_per_batch": 1.0},  # improved
            {"transport": "tcp", "group_size": 1, "ms_per_batch": 1.5},  # regressed
            {"transport": "inproc", "group_size": 5, "ms_per_batch": 9.9},  # no base
        ]
        report, regressions = diff_against_baseline(
            current, baseline, regression_threshold=1.20
        )
        assert regressions == 1
        assert "improved" in report and "REGRESSION" in report
        assert "no baseline row" in report

    def test_diff_within_noise_threshold_is_ok(self):
        from repro.bench.reporting import diff_against_baseline

        base = [{"transport": "tcp", "group_size": 20, "ms_per_batch": 1.0}]
        cur = [{"transport": "tcp", "group_size": 20, "ms_per_batch": 1.1}]
        report, regressions = diff_against_baseline(cur, base)
        assert regressions == 0
        assert "ok" in report

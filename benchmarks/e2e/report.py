"""Turning round results into named metrics, printing them, and comparing
two results.

``BENCHMARK.json`` at the repo root is the catalogue of what the benchmark
driver gates: those names, units, directions and bounds are read from it,
not repeated.  ``POOLED`` below holds the four metrics only ``compare``
gates.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

CATALOGUE_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

# Timings are taken over windows of this many consecutive groups.  Of
# 8/10/15/20 tried on three sets of ten runs, 10 (like 8) kept the spread
# of every timing lowest; at 20 a window free of outside bursts was too
# rare for the p95 (spread 20-43% on wordcount_durable against 11-24%).
WINDOW_GROUPS = 10

# A tail percentile is only reported as such when at least this many
# samples lie beyond it.
SAMPLES_BEYOND = 10
TAIL_CANDIDATES = (99, 95, 90, 75, 50)

# The one end-to-end metric that is the median of its rounds' values; the
# others, all timings, are the best of them.
MEDIAN_OF_ROUNDS = "peak_rss_mb"

# The issue's own definitions, over every group sample, disturbed or not,
# with the issue's bounds.  The benchmark driver cannot gate them: it
# refuses a benchmark whose run-to-run spread exceeds a metric's bound, and
# on a shared host theirs is 9-36% on a good day (README, "Noise").
# ``compare`` does,
# and says ``unresolved`` where the rounds disagree by more than the bound.
POOLED = (
    {"name": "records_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    {"name": "batch_ms_p50", "unit": "ms", "better": "lower", "bound": 0.10},
    {"name": "batch_ms_p95", "unit": "ms", "better": "lower", "bound": 0.15},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
)

# Counts that must not change at all between two results of one commit.
EXACT = ("net.rpc_per_batch", "engine.tasks_per_batch", "ha.appends_per_group")

# Two results are only comparable when they agree on these.
SAME_RUN_SHAPE = ("seed", "rounds", "seconds", "smoke", "python", "platform", "cpu_count")


def catalogue() -> Dict[str, Any]:
    with open(CATALOGUE_PATH) as f:
        return json.load(f)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    rank = q / 100.0 * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def highest_supported_percentile(n_samples: int) -> int:
    """The highest candidate percentile with ``SAMPLES_BEYOND`` samples
    beyond it (the median when even p75 has too few)."""
    for p in TAIL_CANDIDATES:
        if n_samples * (100 - p) / 100.0 >= SAMPLES_BEYOND:
            return p
    return TAIL_CANDIDATES[-1]


def quartile_spread(values: Sequence[float]) -> Optional[float]:
    """The distance between the quartiles as a share of the median; None
    with fewer than two values."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def floor_gap(values: Sequence[float], better: str) -> Optional[float]:
    """How far the best value stands from the second best, as a share of
    it: a floor that two rounds reached is a floor, one that a single
    round reached may be luck.  None with fewer than two values."""
    if len(values) < 2:
        return None
    ordered = sorted(values, reverse=better == "higher")
    return abs(ordered[1] - ordered[0]) / ordered[0]


def windows(samples_ms: Sequence[float]) -> List[Sequence[float]]:
    """Every run of ``WINDOW_GROUPS`` consecutive group samples (a round
    shorter than that is one window)."""
    n = WINDOW_GROUPS
    if len(samples_ms) <= n:
        return [samples_ms] if samples_ms else []
    return [samples_ms[i : i + n] for i in range(len(samples_ms) - n + 1)]


def records_per_s(workload: Any, samples_ms: Sequence[float]) -> float:
    """Input records per second over consecutive group samples (each is
    ms per batch, a group's wall time divided by its batches)."""
    return len(samples_ms) * workload.records_per_batch * 1e3 / sum(samples_ms)


def quiet_round_values(workload: Any, result: Dict[str, Any]) -> Dict[str, float]:
    """One round's value of every end-to-end metric.  Each timing is that
    of the round's quietest window: interference from outside the VM only
    ever slows a window down, so the best window is the one closest to
    the program's own speed (README, "Noise")."""
    wins = windows(result["samples_ms"])
    return {
        "records_per_s": max(records_per_s(workload, w) for w in wins),
        "batch_ms_p50": min(percentile(w, 50) for w in wins),
        "batch_ms_quiet_p95": min(percentile(w, 95) for w in wins),
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def end_to_end_metrics(workload: Any, untraced: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The metrics the benchmark driver gates: a timing is the best of
    the rounds' quiet-window values, memory the median of the rounds."""
    per_round = [quiet_round_values(workload, r) for r in untraced]
    out: Dict[str, Any] = {}
    for m in catalogue()["end_to_end"]:
        values = [v[m["name"]] for v in per_round]
        if m["name"] == MEDIAN_OF_ROUNDS:
            value, spread = statistics.median(values), quartile_spread(values)
        else:
            value = max(values) if m["better"] == "higher" else min(values)
            spread = floor_gap(values, m["better"])
        out[m["name"]] = {"value": value, "unit": m["unit"], "rounds": values, "spread": spread}
    return out


def pooled_metrics(workload: Any, untraced: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The ``POOLED`` metrics: throughput, median and set-up time are the
    median of the rounds' values; the tail is the highest percentile with
    ``SAMPLES_BEYOND`` samples beyond it over all rounds' groups pooled."""
    pooled = [s for r in untraced for s in r["samples_ms"]]
    tail = highest_supported_percentile(len(pooled))
    per_round = {
        "records_per_s": [records_per_s(workload, r["samples_ms"]) for r in untraced],
        "batch_ms_p50": [percentile(r["samples_ms"], 50) for r in untraced],
        "batch_ms_p95": [percentile(r["samples_ms"], tail) for r in untraced],
        "setup_s": [r["setup_s"] for r in untraced],
    }
    out: Dict[str, Any] = {"samples": len(pooled), "tail_percentile": tail}
    for m in POOLED:
        values = per_round[m["name"]]
        out[m["name"]] = {
            "value": percentile(pooled, tail)
            if m["name"] == "batch_ms_p95"
            else statistics.median(values),
            "unit": m["unit"],
            "rounds": values,
            "spread": quartile_spread(values),
        }
    return out


def summarize(
    workload: Any,
    untraced: List[Dict[str, Any]],
    traced: List[Dict[str, Any]],
    harness: Dict[str, float],
) -> Dict[str, Any]:
    """One workload's metrics from its rounds; ``rounds`` keeps every
    round's value so two results can tell a change from spread."""
    cat = catalogue()
    measured_rounds = [r for r in untraced if r["samples_ms"]]
    end_to_end = end_to_end_metrics(workload, measured_rounds)

    measured: Dict[str, Any] = dict(harness)
    if traced:
        measured.update(traced[0]["per_layer"])
        if traced[0]["samples_ms"]:
            # One traced round against the typical untraced round, not the
            # best of them.
            measured["harness.probe_overhead_ratio"] = quiet_round_values(workload, traced[0])[
                "batch_ms_p50"
            ] / statistics.median(end_to_end["batch_ms_p50"]["rounds"])
    per_layer = {
        m["name"]: {"value": measured.get(m["name"]), "unit": m["unit"]}
        for m in cat["per_layer"]
    }

    every = untraced + traced
    g = workload.group_size
    attempted = sum((r["groups"] + r["failed_groups"]) * g for r in every)
    failed = sum(
        r["failed_groups"] * g if r["correct"] else (r["groups"] + r["failed_groups"]) * g
        for r in every
    )
    return {
        "why": workload.why,
        "records_per_batch": workload.records_per_batch,
        "group_size": g,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "errors": [e for r in every for e in r["errors"]],
        "pinned_cpu": every[0]["pinned_cpu"] if every else None,
        "host_steal_share": [r["host_steal_share"] for r in untraced],
        "engine_conf": every[0]["engine_conf"] if every else None,
        "end_to_end": end_to_end,
        "pooled": pooled_metrics(workload, measured_rounds),
        "per_layer": per_layer,
        "missing_probes": traced[0]["missing_probes"] if traced else [],
        "budget_ms_per_batch": traced[0]["budget_ms_per_batch"] if traced else None,
    }


def _fmt(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"
    return str(value)


def render(result: Dict[str, Any]) -> str:
    """Every metric of every workload by name, with its unit."""
    lines: List[str] = []
    for name, w in result["workloads"].items():
        pooled = w["pooled"]
        lines.append(
            f"== {name}: {w['records_per_batch']} records/batch, g={w['group_size']}, "
            f"ops {w['ops_attempted']} attempted / {w['ops_failed']} failed"
        )
        for error in w["errors"]:
            lines.append(f"   ERROR {error}")
        for section in ("end_to_end", "per_layer"):
            for metric, entry in w[section].items():
                lines.append(f"   {metric:<42} {_fmt(entry['value']):>12} {entry['unit']}")
        lines.append(
            f"   every group sample pooled ({pooled['samples']} groups, "
            f"batch_ms_p95 is their p{pooled['tail_percentile']}):"
        )
        for m in POOLED:
            entry = pooled[m["name"]]
            lines.append(
                f"   {'pooled.' + m['name']:<42} {_fmt(entry['value']):>12} {entry['unit']}"
            )
        steal = ", ".join("n/a" if s is None else f"{s:.1%}" for s in w["host_steal_share"])
        lines.append(f"   host steal share of each round's timed region: {steal}")
        if w["missing_probes"]:
            lines.append(f"   missing_probes: {', '.join(w['missing_probes'])}")
        budget = w["budget_ms_per_batch"]
        if budget:
            for side, layers in budget.items():
                cells = "  ".join(f"{layer}={_fmt(ms)}" for layer, ms in layers.items())
                lines.append(f"   self ms/batch, {side}: {cells}")
    return "\n".join(lines)


def fingerprint_differences(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """The ``SAME_RUN_SHAPE`` keys on which two results' fingerprints
    differ; numbers are comparable only when there are none."""
    fa, fb = a.get("fingerprint", {}), b.get("fingerprint", {})
    return [
        f"{key}: {fa.get(key)!r} != {fb.get(key)!r}"
        for key in SAME_RUN_SHAPE
        if fa.get(key) != fb.get(key)
    ]


def _verdict(m: Dict[str, Any], ea: Dict[str, Any], eb: Dict[str, Any]) -> Dict[str, Any]:
    change = (eb["value"] - ea["value"]) / ea["value"]
    worsening = change if m["better"] == "lower" else -change
    spreads = [e["spread"] for e in (ea, eb) if e["spread"] is not None]
    spread = max(spreads) if spreads else None
    if spread is not None and spread > m["bound"]:
        verdict = "unresolved"
    elif worsening > m["bound"]:
        verdict = "regressed"
    else:
        verdict = "ok"
    return {
        "a": ea["value"],
        "b": eb["value"],
        "worsening": worsening,
        "spread": spread,
        "bound": m["bound"],
        "verdict": verdict,
    }


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload x metric.  End-to-end metrics (bounds from
    ``BENCHMARK.json``) and ``POOLED`` ones (the issue's bounds) are
    ``ok``, ``regressed`` (B worse than A by more than the bound) or
    ``unresolved`` (the rounds of either side disagree by more than the
    bound: between the quartiles for a median of rounds, between the best
    and the second best for a best of rounds).  ``EXACT`` counts must be
    equal."""
    rows: List[Dict[str, Any]] = []
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            continue
        for m in catalogue()["end_to_end"]:
            row = _verdict(m, wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]])
            rows.append({"workload": name, "metric": m["name"], **row})
        for m in POOLED:
            row = _verdict(m, wa["pooled"][m["name"]], wb["pooled"][m["name"]])
            tails = wa["pooled"]["tail_percentile"], wb["pooled"]["tail_percentile"]
            if m["name"] == "batch_ms_p95" and tails[0] != tails[1]:
                row["verdict"] = "unresolved"  # not the same percentile
            rows.append({"workload": name, "metric": "pooled." + m["name"], **row})
        for metric in EXACT:
            va = wa["per_layer"][metric]["value"]
            vb = wb["per_layer"][metric]["value"]
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "a": va,
                    "b": vb,
                    "worsening": None,
                    "spread": None,
                    "bound": 0.0,
                    "verdict": "ok" if va == vb else "regressed",
                }
            )
    return rows


def render_comparison(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<24} {'A':>12} {'B':>12} {'worse by':>9} "
        f"{'spread':>7} {'bound':>6}  verdict"
    ]
    for r in rows:
        worse = "" if r["worsening"] is None else f"{r['worsening']:+.1%}"
        spread = "" if r["spread"] is None else f"{r['spread']:.1%}"
        lines.append(
            f"{r['workload']:<18} {r['metric']:<24} {_fmt(r['a']):>12} {_fmt(r['b']):>12} "
            f"{worse:>9} {spread:>7} {r['bound']:>6.0%}  {r['verdict']}"
        )
    return "\n".join(lines)

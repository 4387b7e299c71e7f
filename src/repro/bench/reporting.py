"""Plain-text table/CDF rendering and JSON reports for benchmark output.

Benchmarks print the same rows/series the paper's tables and figures
report, so a run's stdout can be compared against the paper directly.
:func:`write_bench_json` additionally persists a machine-readable
``BENCH_<name>.json`` with the experiment payload and a full
:meth:`~repro.common.metrics.MetricsRegistry.snapshot` embedded, so runs
can be diffed/regressed without re-parsing tables.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.metrics import MetricsRegistry
from repro.common.stats import percentile


def render_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Fixed-width aligned table."""
    str_rows = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def latency_summary_row(name: str, latencies_s: Sequence[float]) -> List:
    ms = [x * 1e3 for x in latencies_s]
    return [
        name,
        percentile(ms, 50),
        percentile(ms, 5),
        percentile(ms, 95),
        percentile(ms, 99),
        max(ms),
    ]


def render_cdf(
    series: Dict[str, Sequence[float]],
    unit_scale: float = 1e3,
    unit: str = "ms",
    points: Sequence[float] = (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99),
    title: str = "",
) -> str:
    """Render CDFs as a percentile table (one column per series)."""
    headers = ["pct"] + list(series)
    rows: List[List] = []
    for p in points:
        row: List = [f"p{int(p * 100)}"]
        for name in series:
            values = [v * unit_scale for v in series[name]]
            row.append(percentile(values, p * 100))
        rows.append(row)
    label = f"{title} (latency in {unit})" if title else f"(latency in {unit})"
    return render_table(headers, rows, title=label)


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def bench_environment() -> Dict[str, Any]:
    """Machine/config fingerprint embedded in every ``BENCH_*.json``.

    Saved benchmark numbers are only comparable on the same machine
    with the same transport knobs; recording ``cpu_count``, the
    (env-resolved) :class:`~repro.common.config.TransportConf` defaults,
    and the git SHA makes a stale or cross-machine baseline visible
    instead of a mystery regression.
    """
    from repro.common.config import TransportConf

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "transport": dataclasses.asdict(TransportConf()),
    }


def write_bench_json(
    name: str,
    payload: Any,
    metrics: Optional[MetricsRegistry] = None,
    out_dir: str = ".",
    telemetry: Optional[Dict[str, Any]] = None,
) -> str:
    """Write ``BENCH_<name>.json`` and return its path.

    ``payload`` is the experiment's result (rows, rendered report, ...);
    when a registry is supplied its full snapshot — counters, gauges,
    histogram/series percentile summaries — is embedded alongside, and
    every document records the environment it was produced on (see
    :func:`bench_environment`).  ``telemetry`` optionally embeds a
    cluster-telemetry rollup + signals document (repro.obs.live) from
    the benchmarked cluster.
    """
    doc: Dict[str, Any] = {
        "experiment": name,
        "environment": bench_environment(),
        "payload": payload,
    }
    if metrics is not None:
        doc["metrics"] = metrics.snapshot()
    if telemetry is not None:
        doc["telemetry"] = telemetry
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, default=str)
        f.write("\n")
    return path


# Row fields used to match current rows against baseline rows, in
# priority order; whichever are present in both rows form the key.
_BASELINE_KEY_FIELDS = (
    "transport",
    "backend",
    "system",
    "mode",
    "machines",
    "workload",
    "group_size",
)


def load_baseline_rows(name: str, baseline_path: str) -> Optional[List[Dict]]:
    """Read the structured rows out of a saved ``BENCH_<name>.json``.

    ``baseline_path`` may be the JSON file itself or a directory holding
    it.  Returns None when the file or its ``payload.rows`` is absent.
    """
    path = baseline_path
    if os.path.isdir(path):
        path = os.path.join(path, f"BENCH_{name}.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        doc = json.load(f)
    rows = doc.get("payload", {}).get("rows")
    if not isinstance(rows, list):
        return None
    return rows


def diff_against_baseline(
    rows: Sequence[Dict],
    baseline_rows: Sequence[Dict],
    metric: str = "ms_per_batch",
    regression_threshold: float = 1.20,
) -> Tuple[str, int]:
    """Compare a metric row-by-row against a baseline run.

    Rows are matched on the :data:`_BASELINE_KEY_FIELDS` they share.
    Returns ``(report, regressions)`` where a regression is a matched row
    whose metric grew beyond ``regression_threshold`` times the baseline.
    Benchmarks are noisy; the report flags, it does not fail the run.
    """

    def key(row: Dict) -> Tuple:
        return tuple(
            (k, row[k]) for k in _BASELINE_KEY_FIELDS if k in row
        )

    base_by_key = {key(r): r for r in baseline_rows if metric in r}
    lines: List[str] = []
    regressions = 0
    for row in rows:
        if metric not in row:
            continue
        base = base_by_key.get(key(row))
        label = " ".join(str(v) for _k, v in key(row)) or "<row>"
        if base is None:
            lines.append(f"  {label}: no baseline row")
            continue
        current, previous = float(row[metric]), float(base[metric])
        if previous > 0:
            ratio = current / previous
            verdict = "ok"
            if ratio > regression_threshold:
                verdict = "REGRESSION"
                regressions += 1
            elif ratio < 1.0:
                verdict = "improved"
            lines.append(
                f"  {label}: {metric} {previous:.4g} -> {current:.4g} "
                f"({ratio - 1.0:+.1%} vs baseline, {verdict})"
            )
        else:
            lines.append(f"  {label}: baseline {metric} is 0, skipped")
    header = f"baseline diff ({metric}, regression > {regression_threshold:.2f}x):"
    return "\n".join([header] + (lines or ["  no comparable rows"])), regressions

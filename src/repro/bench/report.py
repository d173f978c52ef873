"""Plain-text report formatting and the JSON artifact writer.

Benchmarks print the same rows/series the paper's figures plot; these
helpers keep the formatting consistent and terminal-friendly.
:func:`rounded` and :func:`write_json` are the one way any command
writes a deterministic (byte-diffable) JSON artifact; :func:`merge_results`
is the one way a figure's rows reach ``benchmarks/results.json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, List, Sequence

#: Decimal places for floats in artifacts (keeps files readable).
_DIGITS = 6


def rounded(doc):
    """Recursively round floats for artifact output."""
    if isinstance(doc, float):
        return round(doc, _DIGITS)
    if isinstance(doc, dict):
        return {k: rounded(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [rounded(v) for v in doc]
    return doc


def write_json(path, doc) -> Path:
    """Write ``doc`` as deterministic JSON (sorted keys, two-space indent,
    trailing newline), creating the parent directory if needed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def merge_results(path, key: str, rows: Any) -> Path:
    """Store ``rows`` under ``key`` in the JSON document at ``path``,
    keeping every other key (a missing or unreadable file starts empty).

    The one writer of ``benchmarks/results.json``: sorted keys, two-space
    indent and, unlike :func:`write_json`, no trailing newline, which is
    how the committed file has always been written."""
    path = Path(path)
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    data[key] = rows
    path.write_text(json.dumps(data, indent=2, sort_keys=True))
    return path


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[Any]], title: str = ""
) -> str:
    """Render an aligned text table."""
    str_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_queue_gating(metrics, title: str = "admission gate (post-warmup)") -> str:
    """Per-group queue depth + gating table from a :class:`RunMetrics`.

    Returns an empty string when the run produced no admission-gate
    samples (e.g. warmup covered the whole run).
    """
    rows = metrics.queue_summary()
    if not rows:
        return ""
    reasons = sorted({
        key[len("gated_"):]
        for row in rows
        for key in row
        if key.startswith("gated_") and key != "gated_total"
    })
    headers = [
        "group", "samples", "wan_mean_s", "wan_max_s",
        "cpu_mean_s", "cpu_max_s", "stalls",
    ] + [f"stalls_{reason}" for reason in reasons]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                f"g{int(row['gid'])}",
                int(row["samples"]),
                row["wan_backlog_mean"],
                row["wan_backlog_max"],
                row["cpu_backlog_mean"],
                row["cpu_backlog_max"],
                int(row["gated_total"]),
            ]
            + [int(row.get(f"gated_{reason}", 0)) for reason in reasons]
        )
    return format_table(headers, table_rows, title=title)


def format_control_decisions(
    metrics, title: str = "controller decisions"
) -> str:
    """Per-knob decision-log table from a :class:`RunMetrics`.

    One row per actuation: when it fired, which group and knob, the
    old -> new values, the trigger metric and its sampled magnitude, the
    policy, and the control epoch after actuation. Returns an empty
    string when no controller ran (or it never actuated).
    """
    rows = metrics.control_summary()
    if not rows:
        return ""
    headers = [
        "t_s", "group", "knob", "old", "new", "trigger", "value",
        "policy", "epoch",
    ]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row["at"],
                f"g{int(row['gid'])}",
                row["knob"],
                row["old"],
                row["new"],
                row["trigger"],
                row["value"],
                row["policy"],
                int(row["epoch"]),
            ]
        )
    return format_table(headers, table_rows, title=title)


def format_traffic_accounting(metrics) -> str:
    """One-line offered/admitted/committed/dropped summary.

    Empty when the run recorded no offered traffic (e.g. warmup covered
    the whole run, or an old metrics object without the accounting).
    """
    traffic = metrics.traffic_summary()
    if not traffic["offered"]:
        return ""
    shed_pct = 100.0 * traffic["dropped"] / traffic["offered"]
    return (
        f"offered {traffic['offered']:,}  admitted {traffic['admitted']:,}  "
        f"committed {traffic['committed']:,}  dropped {traffic['dropped']:,} "
        f"({shed_pct:.1f}% shed)"
    )


def format_tenant_table(metrics, title: str = "per-tenant (post-warmup)") -> str:
    """Per-tenant accounting + latency percentile table.

    Empty for single-tenant runs (no tenant mix configured).
    """
    rows = metrics.tenant_rows()
    if not rows:
        return ""
    headers = [
        "tenant", "prio", "offered", "admitted", "committed", "dropped",
        "p50_ms", "p99_ms", "p999_ms", "slo_p99_ms", "slo",
    ]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row["tenant"],
                row["priority"],
                row["offered"],
                row["admitted"],
                row["committed"],
                row["dropped"],
                row["p50_latency_s"] * 1000.0,
                row["p99_latency_s"] * 1000.0,
                row["p999_latency_s"] * 1000.0,
                row["slo_p99_s"] * 1000.0,
                "ok" if row["slo_met"] else "MISS",
            ]
        )
    return format_table(headers, table_rows, title=title)


def format_series(
    name: str,
    xs: Sequence[Any],
    ys: Sequence[float],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render one figure series as labelled (x, y) pairs."""
    pairs = ", ".join(f"{_fmt(x)}:{_fmt(y)}" for x, y in zip(xs, ys))
    return f"{name} [{x_label} -> {y_label}]: {pairs}"

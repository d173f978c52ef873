"""Compare two perfbench result files: ``python3 perfbench/compare.py A.json B.json``.

One row per workload x end-to-end metric: both values, the ratio B/A
with its base, the bound from ``BENCHMARK.json`` and a verdict:

* ``regressed`` / ``improved`` - B is worse / better than A by more than
  the bound (as a share of A, the base);
* ``unchanged`` - within the bound;
* ``unresolved`` - a side's own min-max range is wider than the bound
  and the two ranges overlap, so the runs cannot tell.

Simulated metrics and counts repeat exactly for a seed, so when both
files used the same seed every one that is not bit-equal is listed too:
a change meant only to speed up the simulator must leave them alone.

Exits 1 if any row regressed. A is the base: swap the arguments to check
the other direction.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent


def _range(entry: dict, name: str):
    value = entry["metrics"][name]["value"]
    spread = entry.get("stats", {}).get(name)
    if spread is None:
        return value, value, value
    return value, spread["min"], spread["max"]


def verdict(a, b, better: str, bound: float) -> str:
    """``a`` and ``b`` are (value, min, max); A is the base."""
    (a_mid, a_lo, a_hi), (b_mid, b_lo, b_hi) = a, b
    base = abs(a_mid)
    if base == 0.0:
        return "unchanged" if b_mid == a_mid else "unresolved"
    too_wide = (a_hi - a_lo) > bound * base or (b_hi - b_lo) > bound * base
    overlap = a_lo <= b_hi and b_lo <= a_hi
    if too_wide and overlap:
        return "unresolved"
    worse = (b_mid - a_mid) / base
    if better == "higher":
        worse = -worse
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(a_doc: dict, b_doc: dict, benchmark: dict) -> List[dict]:
    rows = []
    for name, a_workload in a_doc["workloads"].items():
        b_workload = b_doc["workloads"].get(name)
        if b_workload is None:
            continue
        a_entry, b_entry = a_workload.get("end_to_end"), b_workload.get("end_to_end")
        if not a_entry or not b_entry:
            continue
        for metric in benchmark["end_to_end"]:
            a = _range(a_entry, metric["name"])
            b = _range(b_entry, metric["name"])
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": a[0],
                    "b": b[0],
                    "ratio": b[0] / a[0] if a[0] else float("nan"),
                    "bound": metric["bound"],
                    "verdict": verdict(a, b, metric["better"], metric["bound"]),
                }
            )
    return rows


def _exact(entry: dict) -> dict:
    """The values of one pass that repeat exactly for a seed."""
    values = dict(entry["fingerprint"])
    values.update(
        (name, metric["value"])
        for name, metric in entry["metrics"].items()
        if name.endswith(".calls")
    )
    return values


def exact_differences(a_doc: dict, b_doc: dict) -> List[str]:
    """Deterministic values that differ although the seed is the same."""
    lines = set()
    for name, a_workload in a_doc["workloads"].items():
        b_workload = b_doc["workloads"].get(name, {})
        for part in ("end_to_end", "per_layer"):
            a_entry, b_entry = a_workload.get(part), b_workload.get(part)
            if not a_entry or not b_entry:
                continue
            theirs = _exact(b_entry)
            for key, value in _exact(a_entry).items():
                if theirs.get(key) != value:
                    lines.add("%s %s: %r -> %r" % (name, key, value, theirs.get(key)))
    return sorted(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(path).read_text()) for path in argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a_doc, b_doc, benchmark)
    print("A = %s   B = %s" % tuple(argv))
    print(
        "%-18s %-25s %14s %14s  %-30s %6s  %s"
        % ("workload", "metric", "A", "B", "B/A (base A)", "bound", "verdict")
    )
    for row in rows:
        print(
            "%-18s %-25s %14.6g %14.6g  %-30s %5.1f%%  %s"
            % (
                row["workload"],
                row["metric"],
                row["a"],
                row["b"],
                "%.4f of %.6g %s" % (row["ratio"], row["a"], row["unit"]),
                row["bound"] * 100,
                row["verdict"],
            )
        )
    if a_doc["provenance"]["seed"] == b_doc["provenance"]["seed"]:
        differences = exact_differences(a_doc, b_doc)
        print(
            "\nsame seed: %d simulated metrics, counts and calls are not bit-equal"
            % len(differences)
        )
        for line in differences:
            print("  " + line)
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    print("%d rows, %d regressed" % (len(rows), len(regressed)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

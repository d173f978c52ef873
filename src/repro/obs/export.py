"""Exporters: Chrome trace-event JSON (Perfetto-loadable) + span JSONL.

Two serialisations of one :class:`~repro.obs.tracer.Trace`:

* :func:`export_chrome_trace` writes the Chrome trace-event format
  (``ui.perfetto.dev`` / ``chrome://tracing`` open it directly):
  ``M`` metadata rows name processes/threads, ``X`` complete events
  carry spans (``ts``/``dur`` in microseconds of *simulated* time),
  ``C`` counter events carry telemetry series, ``i`` instants mark
  injected faults and applied reconfigurations (epoch markers).
* :func:`export_span_jsonl` writes one JSON object per span, flat, with
  ``parent_id`` references — sorted keys and fixed separators, so two
  identically-seeded runs produce byte-identical files (the determinism
  tests diff them).

Process/thread ids are assigned deterministically from the trace alone:
entry spans live in one process per group (lanes packed greedily so
concurrent entries do not overlap), message spans in one process per
source group with one thread per NIC lane.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.obs.spans import Span

#: pid layout: entry processes at 1+gid, network at 101+gid, then fixed
#: singleton processes for fault markers and telemetry counters.
PID_ENTRIES_BASE = 1
PID_NETWORK_BASE = 101
PID_FAULTS = 901
PID_RECONFIG = 911
PID_CONTROL = 921
PID_TELEMETRY = 951


def _us(seconds: float) -> float:
    """Simulated seconds -> microseconds, stable sub-ns rounding."""
    return round(seconds * 1e6, 3)


def _meta(name: str, pid: int, tid: int, label: str) -> Dict[str, Any]:
    return {"name": name, "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": label}}


def _span_event(span: Span, pid: int, tid: int) -> Dict[str, Any]:
    args = dict(span.args)
    args["span_id"] = span.span_id
    return {
        "name": span.name,
        "cat": span.cat,
        "ph": "X",
        "ts": _us(span.start),
        "dur": _us(span.duration),
        "pid": pid,
        "tid": tid,
        "args": args,
    }


def _pack_lanes(roots: List[Span]) -> Dict[int, int]:
    """Greedy interval packing: root span_id -> lane (0-based).

    Concurrent entries get distinct lanes so their slices do not overlap
    in the viewer; a lane is reused once its previous occupant ended.
    """
    lanes_end: List[float] = []
    assignment: Dict[int, int] = {}
    for root in sorted(roots, key=lambda s: (s.start, s.span_id)):
        placed = False
        for lane, end in enumerate(lanes_end):
            if end <= root.start:
                lanes_end[lane] = root.end
                assignment[root.span_id] = lane
                placed = True
                break
        if not placed:
            assignment[root.span_id] = len(lanes_end)
            lanes_end.append(root.end)
    return assignment


def chrome_trace_doc(trace) -> Dict[str, Any]:
    """Build the full Chrome trace-event document for one trace."""
    events: List[Dict[str, Any]] = []

    # --- entry spans: one process per group, greedy-packed lanes -------
    roots_by_gid: Dict[int, List[Span]] = {}
    for root in trace.entry_roots:
        roots_by_gid.setdefault(root.args.get("gid", 0), []).append(root)
    for gid in sorted(roots_by_gid):
        pid = PID_ENTRIES_BASE + gid
        roots = roots_by_gid[gid]
        lanes = _pack_lanes(roots)
        events.append(_meta("process_name", pid, 0, f"g{gid} entries"))
        for lane in sorted(set(lanes.values())):
            events.append(
                _meta("thread_name", pid, lane + 1, f"lane {lane}")
            )
        for root in roots:
            tid = lanes[root.span_id] + 1
            for span in root.walk():
                events.append(_span_event(span, pid, tid))

    # --- message spans: one process per source group, thread per lane --
    by_track: Dict[str, List[Span]] = {}
    for span in trace.message_spans:
        by_track.setdefault(span.track, []).append(span)
    named_network_pids: set = set()
    for tid, track in enumerate(sorted(by_track), start=1):
        # track format: "net/N<gid>.<idx>/<lane>"
        node_label = track.split("/", 2)[1] if "/" in track else track
        try:
            gid = int(node_label[1:].split(".", 1)[0])
        except (ValueError, IndexError):
            gid = 0
        pid = PID_NETWORK_BASE + gid
        if pid not in named_network_pids:
            named_network_pids.add(pid)
            events.append(_meta("process_name", pid, 0, f"g{gid} network"))
        events.append(
            _meta("thread_name", pid, tid, track[len("net/"):])
        )
        for span in by_track[track]:
            events.append(_span_event(span, pid, tid))

    # --- fault markers: global instants ---------------------------------
    if trace.fault_spans:
        events.append(_meta("process_name", PID_FAULTS, 0, "faults"))
        for span in trace.fault_spans:
            events.append(
                {
                    "name": span.name,
                    "cat": "fault",
                    "ph": "i",
                    "s": "g",
                    "ts": _us(span.start),
                    "pid": PID_FAULTS,
                    "tid": 1,
                    "args": dict(span.args),
                }
            )

    # --- reconfiguration markers: global instants with epoch args -------
    if trace.reconfig_spans:
        events.append(_meta("process_name", PID_RECONFIG, 0, "reconfig"))
        for span in trace.reconfig_spans:
            events.append(
                {
                    "name": span.name,
                    "cat": "reconfig",
                    "ph": "i",
                    "s": "g",
                    "ts": _us(span.start),
                    "pid": PID_RECONFIG,
                    "tid": 1,
                    "args": dict(span.args),
                }
            )

    # --- controller decision markers: global instants with knob args ----
    if trace.control_spans:
        events.append(_meta("process_name", PID_CONTROL, 0, "control"))
        for span in trace.control_spans:
            events.append(
                {
                    "name": span.name,
                    "cat": "control",
                    "ph": "i",
                    "s": "g",
                    "ts": _us(span.start),
                    "pid": PID_CONTROL,
                    "tid": 1,
                    "args": dict(span.args),
                }
            )

    # --- telemetry counters ---------------------------------------------
    if len(trace.telemetry):
        events.append(_meta("process_name", PID_TELEMETRY, 0, "telemetry"))
        for name, series in trace.telemetry.items():
            for t, value in series.points:
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": _us(t),
                        "pid": PID_TELEMETRY,
                        "tid": 0,
                        "args": {"value": value},
                    }
                )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {str(k): v for k, v in trace.meta.items()},
    }


def export_chrome_trace(trace, path: str) -> str:
    doc = chrome_trace_doc(trace)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return path


def export_span_jsonl(trace, path: str) -> str:
    """One span per line, byte-deterministic for identical seeded runs."""
    with open(path, "w") as fh:
        for span in trace.spans():
            fh.write(
                json.dumps(
                    span.to_jsonable(), sort_keys=True, separators=(",", ":")
                )
            )
            fh.write("\n")
    return path


def export_telemetry_json(trace, path: str) -> str:
    doc = {
        "series": trace.telemetry.to_jsonable(),
        "meta": {str(k): v for k, v in trace.meta.items()},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return path


def write_bundle(
    trace,
    out_dir: str,
    report_text: Optional[str] = None,
) -> Dict[str, str]:
    """Write the full trace bundle into ``out_dir``; returns the paths.

    Bundle layout: ``trace.json`` (Chrome trace events, open in
    Perfetto), ``spans.jsonl`` (flat span log), ``telemetry.json``
    (time series), and optionally ``report.txt`` (critical-path report).
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "trace": export_chrome_trace(trace, os.path.join(out_dir, "trace.json")),
        "spans": export_span_jsonl(trace, os.path.join(out_dir, "spans.jsonl")),
        "telemetry": export_telemetry_json(
            trace, os.path.join(out_dir, "telemetry.json")
        ),
    }
    if report_text is not None:
        report_path = os.path.join(out_dir, "report.txt")
        with open(report_path, "w") as fh:
            fh.write(report_text)
            fh.write("\n")
        paths["report"] = report_path
    return paths

"""Exporters and schema validation: Chrome trace doc, JSONL, bundles."""

import json

import pytest

from repro.obs import (
    SchemaError,
    Tracer,
    chrome_trace_doc,
    export_span_jsonl,
    validate,
    validate_bundle,
    validate_chrome_trace,
    write_bundle,
)
from repro.obs.export import (
    PID_ENTRIES_BASE,
    PID_NETWORK_BASE,
    PID_TELEMETRY,
    _pack_lanes,
)
from repro.obs.schema import SPAN_SCHEMA, validate_span_line
from repro.obs.spans import Span

from tests.test_obs_tracer import small_deployment


@pytest.fixture(scope="module")
def trace():
    deployment = small_deployment()
    tracer = Tracer.attach(deployment, telemetry_interval=0.01)
    deployment.run(duration=1.0, warmup=0.25)
    return tracer.build()


class TestChromeDoc:
    def test_doc_passes_schema(self, trace):
        doc = chrome_trace_doc(trace)
        count = validate_chrome_trace(doc)
        assert count == len(doc["traceEvents"]) > 0

    def test_process_layout(self, trace):
        doc = chrome_trace_doc(trace)
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert PID_ENTRIES_BASE in pids  # g0 entries
        assert PID_NETWORK_BASE in pids  # g0 network
        assert PID_TELEMETRY in pids
        names = {
            (e["pid"], e["args"]["name"])
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert (PID_ENTRIES_BASE, "g0 entries") in names
        assert (PID_TELEMETRY, "telemetry") in names

    def test_entry_lanes_do_not_overlap(self, trace):
        doc = chrome_trace_doc(trace)
        roots = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X"
            and e["cat"] == "entry"
            and e["pid"] == PID_ENTRIES_BASE
        ]
        assert roots
        by_tid = {}
        for event in roots:
            by_tid.setdefault(event["tid"], []).append(event)
        for events in by_tid.values():
            events.sort(key=lambda e: e["ts"])
            for prev, cur in zip(events, events[1:]):
                assert prev["ts"] + prev["dur"] <= cur["ts"]

    def test_counters_carry_values(self, trace):
        doc = chrome_trace_doc(trace)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert all("value" in e["args"] for e in counters)


class TestLanePacking:
    def test_disjoint_spans_share_a_lane(self):
        a = Span(1, "a", "entry", 0.0, 1.0, "t")
        b = Span(2, "b", "entry", 1.0, 2.0, "t")
        assert _pack_lanes([a, b]) == {1: 0, 2: 0}

    def test_overlapping_spans_split_lanes(self):
        a = Span(1, "a", "entry", 0.0, 2.0, "t")
        b = Span(2, "b", "entry", 1.0, 3.0, "t")
        c = Span(3, "c", "entry", 2.5, 4.0, "t")
        lanes = _pack_lanes([a, b, c])
        assert lanes[1] != lanes[2]
        assert lanes[3] == lanes[1]  # reuses lane 0 once `a` ended


class TestBundle:
    def test_write_and_validate_bundle(self, trace, tmp_path):
        paths = write_bundle(trace, str(tmp_path), report_text="hello")
        counts = validate_bundle(paths["trace"], paths["spans"])
        assert counts["trace_events"] > 0
        assert counts["spans"] == len(trace.spans())
        assert (tmp_path / "report.txt").read_text() == "hello\n"
        telemetry = json.loads((tmp_path / "telemetry.json").read_text())
        assert set(telemetry["series"]) == {name for name, _ in trace.telemetry.items()}

    def test_repeated_export_is_byte_identical(self, trace, tmp_path):
        first = export_span_jsonl(trace, str(tmp_path / "a.jsonl"))
        second = export_span_jsonl(trace, str(tmp_path / "b.jsonl"))
        assert open(first, "rb").read() == open(second, "rb").read()

    def test_bundle_rejects_corruption(self, trace, tmp_path):
        paths = write_bundle(trace, str(tmp_path))
        lines = open(paths["spans"]).read().splitlines()
        broken = json.loads(lines[0])
        broken["parent_id"] = 10**9  # dangling reference
        lines[0] = json.dumps(broken)
        (tmp_path / "spans.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="unknown parent"):
            validate_bundle(paths["trace"], paths["spans"])


class TestMiniValidator:
    def test_type_mismatch(self):
        with pytest.raises(SchemaError, match="expected integer"):
            validate("nope", {"type": "integer"})

    def test_bool_is_not_a_json_number(self):
        with pytest.raises(SchemaError):
            validate(True, {"type": "number"})

    def test_required_and_additional(self):
        schema = {
            "type": "object",
            "required": ["a"],
            "properties": {"a": {"type": "integer"}},
            "additionalProperties": False,
        }
        validate({"a": 1}, schema)
        with pytest.raises(SchemaError, match="missing required"):
            validate({}, schema)
        with pytest.raises(SchemaError, match="unexpected keys"):
            validate({"a": 1, "b": 2}, schema)

    def test_enum_minimum_items(self):
        with pytest.raises(SchemaError, match="not in"):
            validate("x", {"enum": ["y", "z"]})
        with pytest.raises(SchemaError, match="below minimum"):
            validate(0, {"type": "integer", "minimum": 1})
        with pytest.raises(SchemaError, match=r"\[1\]"):
            validate([1, "x"], {"type": "array", "items": {"type": "integer"}})

    def test_span_line_end_before_start(self):
        span = {
            "span_id": 1,
            "parent_id": None,
            "name": "s",
            "cat": "stage",
            "track": "t",
            "start": 2.0,
            "end": 1.0,
            "args": {},
        }
        validate(span, SPAN_SCHEMA)  # schema alone cannot express ordering
        with pytest.raises(SchemaError, match="end precedes start"):
            validate_span_line(json.dumps(span), 1)

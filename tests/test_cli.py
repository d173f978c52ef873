"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestPlanCommand:
    def test_prints_paper_case_study(self, capsys):
        assert main(["plan", "4", "7"]) == 0
        out = capsys.readouterr().out
        assert "28" in out  # n_total
        assert "2.154" in out  # overhead 28/13

    def test_assignments_listing(self, capsys):
        main(["plan", "4", "7", "--assignments"])
        out = capsys.readouterr().out
        assert "N1.0" in out and "N2.6" in out
        # 28 assignment rows plus headers.
        assert out.count("N1.") >= 28

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            main(["plan", "0", "7"])


class TestRunCommand:
    def test_small_run(self, capsys):
        code = main(
            [
                "run",
                "--protocol", "geobft",
                "--nodes", "4",
                "--load", "1500",
                "--duration", "1.0",
                "--warmup", "0.25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "ktps" in out

    def test_breakdown_flag(self, capsys):
        main(
            [
                "run",
                "--protocol", "massbft",
                "--nodes", "4",
                "--load", "1500",
                "--duration", "1.0",
                "--warmup", "0.25",
                "--breakdown",
            ]
        )
        out = capsys.readouterr().out
        assert "global_replication" in out

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--protocol", "warp-speed"])


class TestCompareCommand:
    def test_two_protocols(self, capsys):
        code = main(
            [
                "compare",
                "--protocols", "geobft,steward",
                "--nodes", "4",
                "--load", "1500",
                "--duration", "1.0",
                "--warmup", "0.25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "geobft" in out and "steward" in out


class TestTraceCommand:
    def test_smoke_trace_writes_validated_bundle(self, capsys, tmp_path):
        code = main(
            [
                "trace",
                "--preset", "smoke",
                "--out", str(tmp_path),
                "--validate",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "critical-path latency attribution" in out
        assert "verdict: AGREE" in out
        assert "schema validation ok" in out
        for name in ("trace.json", "spans.jsonl", "telemetry.json", "report.txt"):
            assert (tmp_path / name).exists(), name

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.protocol == "massbft"
        assert args.preset == "nationwide-ycsb-a"
        assert args.telemetry_interval == 0.005

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--preset", "lunar"])


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "massbft"
        assert args.workload == "ycsb-a"
        assert args.cluster == "nationwide"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRunMetricsOut:
    def test_run_writes_metrics_json(self, tmp_path):
        out_path = tmp_path / "metrics.json"
        code = main(
            [
                "run",
                "--protocol", "massbft",
                "--nodes", "4",
                "--load", "1500",
                "--duration", "1.0",
                "--warmup", "0.25",
                "--metrics-out", str(out_path),
            ]
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["committed"] > 0
        assert doc["events"] > 0
        assert "throughput_tps" in doc["summary"]


class TestScaleCommand:
    def test_point_writes_deterministic_record(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                [
                    "scale",
                    "--groups", "4",
                    "--nodes", "4",
                    "--duration", "0.2",
                    "--out", str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        assert doc["schema"] == "repro-scale/1"
        assert doc["events"] > 0
        assert doc["merged_digest"]

    def test_scale_defaults(self):
        args = build_parser().parse_args(["scale"])
        assert args.groups == 8
        assert args.nodes == 7

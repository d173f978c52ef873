"""Tests for ``repro perf``: the overhead verdict and its CLI wiring.

No wall-clock assertion lives in tier-1: the verdict is judged on
injected timings and the CLI runs with the timed run monkeypatched.
"""

import pytest

from repro.cli import build_parser, main
from repro.perf import harness
from repro.perf.harness import (
    CONTROL_OVERHEAD_TOLERANCE,
    SIM_SECONDS,
    TRACE_BUDGET_S_PER_SIM_S,
    overhead_verdict,
)

#: Wall seconds the tracer may add to one run of the fig08 point.
BUDGET = TRACE_BUDGET_S_PER_SIM_S * SIM_SECONDS


class TestOverheadVerdict:
    def test_within_both_budgets(self):
        verdict = overhead_verdict(1.0, 1.0 + BUDGET / 2, 1.04, True)
        assert verdict["ok"] and verdict["failures"] == []
        assert verdict["trace_s_per_sim_s"] == pytest.approx(
            TRACE_BUDGET_S_PER_SIM_S / 2
        )
        assert verdict["control_overhead"] == pytest.approx(0.04)

    def test_tracer_budget_is_absolute_not_relative(self):
        """The same added seconds pass whatever the untraced wall is —
        the old relative gate failed as the denominator shrank."""
        for plain in (2.0, 0.5, 0.1):
            assert overhead_verdict(plain, plain + BUDGET / 2, plain, True)["ok"]

    def test_traced_wall_twice_the_budget_fails(self):
        verdict = overhead_verdict(1.0, 1.0 + 2 * BUDGET, 1.0, True)
        assert not verdict["ok"]
        assert "tracer adds" in verdict["failures"][0]

    def test_committed_mismatch_fails_even_when_fast(self):
        verdict = overhead_verdict(1.0, 1.0, 1.0, False)
        assert not verdict["ok"]
        assert "different count" in verdict["failures"][0]

    def test_controller_over_relative_budget_fails(self):
        slow = 1.0 + 2 * CONTROL_OVERHEAD_TOLERANCE
        verdict = overhead_verdict(1.0, 1.0, slow, True)
        assert not verdict["ok"]
        assert "controller adds" in verdict["failures"][0]


class TestPerfCommand:
    @pytest.mark.parametrize(
        "flag",
        [
            ["--quick"],
            ["--output", "x.json"],
            ["--baseline", "x.json"],
            ["--update-baseline"],
            ["--tolerance", "0.3"],
            ["--no-end-to-end"],
            ["--profile"],
        ],
    )
    def test_removed_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["perf", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "traced_wall, traced_committed, code",
        [(1.01, 100, 0), (1.0 + 2 * BUDGET, 100, 1), (1.01, 99, 1)],
    )
    def test_exit_code_is_the_verdict(
        self, monkeypatch, capsys, traced_wall, traced_committed, code
    ):
        def fake_run(traced=False, control=None):
            if traced:
                return traced_wall, traced_committed
            return (0.9 if control else 1.0), 100

        monkeypatch.setattr(harness, "timed_run", fake_run)
        assert main(["perf"]) == code
        out = capsys.readouterr().out
        assert "untraced" in out and "traced" in out and "control=aimd" in out
        assert "trace overhead" in out and "control overhead" in out
        assert ("FAILED" in out) == bool(code)


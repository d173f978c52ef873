"""Tests of the benchmark itself: ``python -m pytest perfbench/tests``.

Not part of tier-1 (``testpaths`` is ``tests``): the smoke suite takes
about half a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.worker import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` suite run (durations / 4, one timed repeat)."""
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--smoke", "--seed", "0", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return out, json.loads(out.read_text())


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == [w.name for w in WORKLOADS]
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in WORKLOADS
    }
    for part, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[part]} == units
    names = [m["name"] for part in ("end_to_end", "per_layer") for m in BENCHMARK[part]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names), names
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"]) <= 0.25


def test_every_package_of_the_program_has_a_layer():
    entries = {
        path.name
        for path in (ROOT / "src" / "repro").iterdir()
        if path.name != "__pycache__"
    }
    assert entries == set(layers.PACKAGE_LAYER)
    assert set(layers.PACKAGE_LAYER.values()) == set(layers.LAYERS) | {layers.CHECK}


def test_fold_profile_bills_unowned_time_to_the_calling_layer():
    owned = {"run": "runtime", "encode": "erasure"}
    run, encode = ("/p/run.py", 1, "run"), ("/p/rs.py", 1, "encode")
    translate, hmac_new, digest = ("~", 0, "translate"), ("/lib/hmac.py", 1, "new"), ("~", 0, "digest")
    stats = {
        run: (1, 1, 1.0, 10.0, {}),
        encode: (4, 4, 2.0, 5.0, {run: (4, 4, 2.0, 5.0)}),
        translate: (8, 8, 3.0, 3.0, {encode: (8, 8, 3.0, 3.0)}),
        # hmac.new is called from both layers; digest only from hmac.new.
        hmac_new: (2, 2, 1.0, 3.0, {run: (1, 1, 0.25, 0.75), encode: (1, 1, 0.75, 2.25)}),
        digest: (2, 2, 2.0, 2.0, {hmac_new: (2, 2, 2.0, 2.0)}),
    }
    self_s, calls = layers.fold_profile(stats, lambda func: owned.get(func[2]))
    assert calls == {"runtime": 1, "erasure": 4}
    assert self_s["runtime"] == pytest.approx(1.0 + 0.25 + 2.0 * 0.25)
    assert self_s["erasure"] == pytest.approx(2.0 + 3.0 + 0.75 + 2.0 * 0.75)
    assert sum(self_s.values()) == pytest.approx(sum(s[2] for s in stats.values()))


def test_smoke_reports_every_metric_on_every_workload(smoke):
    _path, doc = smoke
    assert list(doc["workloads"]) == [w.name for w in WORKLOADS]
    for name, entry in doc["workloads"].items():
        for part, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
            result = entry[part]
            assert result["correct"] and result["failed"] == 0, result["problems"]
            assert result["attempted"] >= 1
            assert {k: m["unit"] for k, m in result["metrics"].items()} == units, name
        for metric in entry["end_to_end"]["metrics"].values():
            assert metric["value"] > 0
        shares = [
            entry["per_layer"]["metrics"]["%s.share" % layer]["value"]
            for layer in layers.LAYERS
        ]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)


def test_smoke_workloads_use_the_layers_they_were_chosen_for(smoke):
    _path, doc = smoke

    def calls(workload, layer):
        return doc["workloads"][workload]["per_layer"]["metrics"][layer + ".calls"]["value"]

    for name in ("fig08_nationwide", "fig13a_group40", "real_payload"):
        assert calls(name, "control") == 0
        assert calls(name, "traffic") < 0.01 * calls("churn_flash_crash", "traffic")
    assert calls("churn_flash_crash", "control") > 0
    assert calls("fig08_nationwide", "erasure") < 0.01 * calls("real_payload", "erasure")


def test_provenance_is_recorded_outside_the_compared_body(smoke):
    _path, doc = smoke
    provenance = doc["provenance"]
    for key in ("git_commit", "seed", "python", "numpy", "REPRO_NO_NUMPY", "nproc",
                "calibration.spin_iters_per_s", "generator_lateness"):
        assert key in provenance
    assert provenance["generator_lateness"].startswith("n/a")
    raw = doc["workloads"]["fig08_nationwide"]["end_to_end"]["raw"]
    assert len(raw["wall_s"]) == 1 and raw["import_s"] and raw["build_s"]


def test_compare_of_a_file_with_itself_is_all_unchanged(smoke):
    path, _doc = smoke
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "compare.py"), str(path), str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line for line in done.stdout.splitlines() if line.endswith("unchanged")]
    assert len(rows) == len(WORKLOADS) * len(END_TO_END_UNITS)
    assert "0 simulated metrics, counts and calls are not bit-equal" in done.stdout
    assert "0 regressed" in done.stdout


def test_compare_verdicts():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from compare import verdict

    steady = (10.0, 9.9, 10.1)
    assert verdict(steady, (10.5, 10.4, 10.6), "lower", 0.08) == "unchanged"
    assert verdict(steady, (11.5, 11.4, 11.6), "lower", 0.08) == "regressed"
    assert verdict(steady, (11.5, 11.4, 11.6), "higher", 0.08) == "improved"
    assert verdict((10.0, 9.0, 11.0), (10.5, 10.0, 11.2), "lower", 0.08) == "unresolved"
    assert verdict((10.0, 9.0, 11.0), (20.0, 19.0, 21.0), "lower", 0.08) == "regressed"


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    target = tmp_path / "perfbench"
    target.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (target / path.name).write_text(path.read_text())
    done = subprocess.run(
        BENCHMARK["command"]
        + ["--workload", "fig08_nationwide", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()

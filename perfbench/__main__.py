"""``python3 -m perfbench``: the one command.

Driver form (one pass over one workload, in this process)::

    python3 -m perfbench --workload fig08_nationwide --seed 3 --seconds 20 --trace 0

prints each metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Suite form (no ``--workload``) runs the workloads one after another,
each pass in its own fresh single-threaded worker process and never two
at once, and writes everything plus provenance to ``--out``::

    python3 -m perfbench --seed 0 --out result.json
    python3 -m perfbench --only fig13a_group40      # one workload
    python3 -m perfbench --trace 1                  # traced passes only
    python3 -m perfbench --smoke                    # durations / 4, 1 repeat

Exits non-zero when a workload fails its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Why the open-loop guide's "how late did the generator run" has no
#: number here.
GENERATOR_LATENESS = (
    "n/a: arrivals are generated on the simulated clock, so every request is "
    "sent exactly when it was due and latency is counted from that instant"
)


def _parse(argv):
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__)
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--only", help="suite form: comma-separated workload names")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, help="host seconds of timed repeats per pass"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="0 end-to-end pass, 1 per-layer pass"
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument(
        "--detail",
        action="store_true",
        help="driver form: make the last line the full document (the suite uses this)",
    )
    return parser.parse_args(argv)


def _print_metrics(doc) -> None:
    for name, metric in doc["metrics"].items():
        spread = doc.get("stats", {}).get(name)
        extra = ""
        if spread:
            extra = "   (n=%d, min %.6g, max %.6g)" % (
                spread["n"],
                spread["min"],
                spread["max"],
            )
        print("  %-38s %16.6g %s%s" % (name, metric["value"], metric["unit"], extra))
    for problem in doc["problems"]:
        print("  FAILED %s" % problem)


def run_worker(args, run_seconds: float) -> int:
    from perfbench.worker import run_workload
    from perfbench.workloads import BY_NAME

    if args.workload not in BY_NAME:
        print("unknown workload %r; known: %s" % (args.workload, ", ".join(BY_NAME)),
              file=sys.stderr)
        return 2
    if args.trace is None:
        print("--workload needs --trace 0 or --trace 1", file=sys.stderr)
        return 2
    seconds = run_seconds if args.seconds is None else args.seconds
    doc = run_workload(
        BY_NAME[args.workload], args.seed, seconds, args.trace, args.smoke, SRC
    )
    print("%s seed=%d trace=%d" % (doc["workload"], doc["seed"], doc["trace"]))
    _print_metrics(doc)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    keys = None if args.detail else ("correct", "attempted", "failed", "metrics")
    print(json.dumps(doc if keys is None else {key: doc[key] for key in keys}))
    return 0 if doc["correct"] else 1


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _provenance(args, seconds: float) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_commit": _git_commit(),
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "generator_lateness": GENERATOR_LATENESS,
    }


def run_suite(args, run_seconds: float) -> int:
    from perfbench.workloads import BY_NAME, WORKLOADS

    names = args.only.split(",") if args.only else [w.name for w in WORKLOADS]
    unknown = [name for name in names if name not in BY_NAME]
    if unknown:
        print("unknown workload(s): %s" % ", ".join(unknown), file=sys.stderr)
        return 2
    seconds = run_seconds if args.seconds is None else args.seconds
    passes = (0, 1) if args.trace is None else (args.trace,)
    result = {
        "schema": "perfbench/1",
        "provenance": _provenance(args, seconds),
        "workloads": {},
    }
    ok = True
    for name in names:
        entry = result["workloads"][name] = {"why": BY_NAME[name].why}
        for trace in passes:
            part = ("end_to_end", "per_layer")[trace]
            command = [
                sys.executable, "-m", "perfbench", "--detail",
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            if args.smoke:
                command.append("--smoke")
            # One worker at a time: host times are only comparable when
            # nothing else of ours competes for the two cores.
            done = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900
            )
            lines = done.stdout.splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(done.stdout, end="")
                print("%s trace=%d: worker exited %d without a result"
                      % (name, trace, done.returncode), file=sys.stderr)
                entry[part] = None
                ok = False
                continue
            print("\n".join(lines[:-1]))
            doc = json.loads(lines[-1])
            ok = ok and doc["correct"] and done.returncode == 0
            entry[part] = doc
    calibrations = [
        entry["per_layer"]["metrics"]["calibration.spin_iters_per_s"]["value"]
        for entry in result["workloads"].values()
        if entry.get("per_layer")
    ]
    result["provenance"]["calibration.spin_iters_per_s"] = calibrations or None
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print("perfbench: %s" % ("all workloads correct" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no program to measure: %s is missing" % (SRC / "repro"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json") as handle:
        run_seconds = float(json.load(handle)["run_seconds"])
    if args.workload:
        return run_worker(args, run_seconds)
    return run_suite(args, run_seconds)


if __name__ == "__main__":
    sys.exit(main())

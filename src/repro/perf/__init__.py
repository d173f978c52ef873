"""Overhead budgets (``repro perf``) and the scale point (``repro scale``).

Speed is measured by the declared benchmark, ``python3 -m perfbench``.
This package keeps the two things it does not: the tracer-on and
controller-on wall-clock budgets of the fig08 point
(:mod:`repro.perf.harness`) and the deterministic event-core scale
record (:mod:`repro.perf.scalebench`).
"""

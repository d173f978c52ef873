"""Performance regression harness (``repro perf``).

Times the optimised hot-path kernels (erasure coding, GF row arithmetic,
signatures, the simulator event loop, workload generation) plus one
end-to-end fig08-style deployment point, writes ``BENCH_perf.json``, and
compares the end-to-end number against a committed baseline with a
tolerance band. See :mod:`repro.perf.harness` for the report format and
:mod:`repro.perf.kernels` for what each kernel measures.
"""

from repro.perf.harness import (
    BenchConfig,
    compare_to_baseline,
    run_perf,
    write_report,
)
from repro.perf.scalebench import run_sim_bench, scale_point

__all__ = [
    "BenchConfig",
    "compare_to_baseline",
    "run_perf",
    "run_sim_bench",
    "scale_point",
    "write_report",
]

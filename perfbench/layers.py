"""Host self time per layer, from a cProfile of ``GeoDeployment.run``.

A layer is a package of ``src/repro``. Each profiled function's own time
(``tottime``) goes to the layer that owns its file. Time spent inside
built-in and standard-library callees (``bytes.translate``, ``hmac``,
``heapq`` ...) has no owner of its own, so it is folded into the layer
of the *caller* through the profiler's caller edges; the self times
therefore sum to the whole profiled interval.

cProfile charges every Python call but nothing inside native code, which
shifts proportions towards call-heavy layers: read shares as a guide to
where to look, and ``trace_overhead_ratio`` as how far traced seconds are
from real ones.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

#: Layers that get ``self_s`` / ``share`` / ``calls``, in report order.
LAYERS = (
    "sim",
    "consensus",
    "core",
    "crypto",
    "erasure",
    "ledger",
    "workloads",
    "traffic",
    "runtime",
    "control",
    "bench",
    "other",
)

#: The invariant checker attached to the traced repeat. Its frames are
#: reported but kept out of the shares: it is the benchmark's correctness
#: gate, not part of the simulator's cost.
CHECK = "check"

#: Every top-level entry of ``src/repro`` -> its layer. ``other`` members
#: are listed explicitly so a new package cannot silently vanish from the
#: budget (``tests/test_perfbench.py`` compares this with the directory).
PACKAGE_LAYER = {
    "sim": "sim",
    "consensus": "consensus",
    "core": "core",
    "crypto": "crypto",
    "erasure": "erasure",
    "ledger": "ledger",
    "workloads": "workloads",
    "traffic": "traffic",
    "protocols": "runtime",
    "control": "control",
    "bench": "bench",
    "check": CHECK,
    "topology": "other",
    "obs": "other",
    "perf": "other",
    "costs.py": "other",
    "cli.py": "other",
    "__init__.py": "other",
    "__main__.py": "other",
}

Func = Tuple[str, int, str]  # cProfile's (filename, first line, name)


def make_layer_of(repro_dir: Path) -> Callable[[Func], Optional[str]]:
    """Classifier from a profiled function to its layer (``None`` for
    code outside ``src/repro``, whose time follows its callers).

    The metrics bridge lives in ``protocols/runtime/events.py`` but does
    ``bench``'s work (it feeds ``RunMetrics``), so its line range is
    mapped to ``bench``.
    """
    from repro.protocols.runtime.events import MetricsBridge

    prefix = str(repro_dir) + "/"
    bridge_file = inspect.getsourcefile(MetricsBridge)
    lines, first = inspect.getsourcelines(MetricsBridge)
    bridge_lines = range(first, first + len(lines))

    def layer_of(func: Func) -> Optional[str]:
        filename, line, _name = func
        if not filename.startswith(prefix):
            return None
        if filename == bridge_file and line in bridge_lines:
            return "bench"
        top = filename[len(prefix):].split("/", 1)[0]
        return PACKAGE_LAYER.get(top, "other")

    return layer_of


def fold_profile(stats: dict, layer_of: Callable[[Func], Optional[str]]):
    """Fold ``cProfile`` stats into ``(self_s, calls)`` per layer.

    ``stats`` is ``Profile.stats`` after ``snapshot_stats()``:
    ``{func: (cc, nc, tottime, cumtime, {caller: (nc, cc, tt, ct)})}``
    where a caller edge's ``tt`` is the function's own time on calls made
    from that caller. ``calls`` counts only calls of functions a layer
    owns, so it repeats exactly from run to run.
    """
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    memo: Dict[Func, Dict[str, float]] = {}

    def owners(func: Func) -> Dict[str, float]:
        """Layer weights (summing to 1) that pay for time under ``func``."""
        layer = layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        # Provisional answer while the callers are walked: a cycle among
        # un-owned functions bills that edge to ``other`` and terminates.
        memo[func] = {"other": 1.0}
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[3] for edge in callers.values())
        if total > 0.0:
            weights: Dict[str, float] = {}
            for caller, edge in callers.items():
                for name, share in owners(caller).items():
                    weights[name] = weights.get(name, 0.0) + share * edge[3] / total
            memo[func] = weights
        return memo[func]

    for func, (_cc, nc, tottime, _ct, callers) in stats.items():
        layer = layer_of(func)
        if layer is not None:
            self_s[layer] = self_s.get(layer, 0.0) + tottime
            calls[layer] = calls.get(layer, 0) + nc
            continue
        billed = 0.0
        for caller, edge in callers.items():
            billed += edge[2]
            for name, share in owners(caller).items():
                self_s[name] = self_s.get(name, 0.0) + edge[2] * share
        # Time no caller edge covers (profile roots) stays visible.
        self_s["other"] = self_s.get("other", 0.0) + (tottime - billed)
    return self_s, calls

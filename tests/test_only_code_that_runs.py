"""Guard: every public name in ``src/repro`` has a caller that runs.

A name is *used* when some code in ``src/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` refers to it: an identifier or an
attribute in a parsed syntax tree. Strings, comments and docstrings are
not code, and import statements (the ``__init__`` re-exports) only pass
a name along, so none of them counts. Tests do not count either: a name
only a test calls checks code that no run executes.

Scanned: top-level functions and classes, and the public methods and
properties of top-level classes. Names are matched bare, so a method
shares its uses with every same-named attribute (``x.run`` keeps every
``run`` alive); the guard catches names nothing refers to at all.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")

#: Names kept although only tests call them, each with the reason.
ALLOWED = {
    "Simulator.pending_events": "event-queue tests count scheduled events",
    "Simulator.run_until_idle": "unit tests drain a simulator without a horizon",
    "Event.fire": "the EventQueue unit tests run events through it",
    "Network.is_crashed": "network tests read crash state without a send",
    "KVStore.state_digest": "determinism fingerprints of a store's contents",
    "ExecutionPipeline.carryover": "pipeline tests inspect deferred transactions",
    "YcsbWorkload.column_key": "tests/eager_population.py builds loaded tables",
    "policy_names": "the CLI-literal consistency test of controller policies",
}


def _definitions(tree):
    """(qualified name, bare name, line) of each scanned definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno


@functools.lru_cache(maxsize=None)
def scan():
    """Each scanned definition nothing uses: name -> ``path:line name``."""
    used = set()
    defined = []
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
            if directory == "src":
                rel = path.relative_to(ROOT)
                defined.extend(
                    (qualified, bare, f"{rel}:{line}")
                    for qualified, bare, line in _definitions(tree)
                )
    return {
        qualified: f"{where} {qualified}"
        for qualified, bare, where in defined
        if bare not in used
    }


def test_every_public_src_name_has_a_caller_outside_tests():
    unused = [line for name, line in scan().items() if name not in ALLOWED]
    assert not unused, (
        "no code outside tests/ uses these; delete them (and the tests that "
        "check only them), or move a test oracle into its test:\n"
        + "\n".join(unused)
    )


def test_allowlist_holds_only_names_without_a_caller():
    """An allowed name that gained a caller, or is gone, leaves the list."""
    assert set(ALLOWED) <= set(scan())

"""Cross-process determinism of seeded deployment runs.

The perf work (vectorised kernels, event-loop fast path, caches, GC
gating) is only admissible if seeded runs stay *bit-identical*. Each
test runs one short seeded scenario in two fresh Python processes and
requires the fingerprints to match — any reordered RNG draw, float
expression, or eliminated event shows up here. Fresh processes because
transaction ids come from a process-global counter: two deployments in
one interpreter legitimately produce different state digests.

* ``fig08`` — the nationwide saturation point; fingerprint is the
  committed count, simulator event count and per-group observer state
  digests.
* ``churn`` — a 3x5 scaled cluster with a node join and a node crash
  mid-run, traced; the fingerprint additionally covers the metrics
  summary and the SHA-256 of the exported span JSONL, so the
  reconfiguration path and the tracer are witnessed too.
"""

import json
import pathlib
import subprocess
import sys

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

FINGERPRINT_TEMPLATE = """
import hashlib, json, pathlib, sys, tempfile
sys.path.insert(0, {src!r})
from repro.obs.export import export_span_jsonl
from repro.protocols import GeoDeployment, protocol_by_name
from repro.topology import nationwide_cluster, scaled_cluster
from repro.workloads import make_workload

churn = {churn!r}
if churn:
    cluster = scaled_cluster(n_groups=3, nodes_per_group=5)
    load = 1_500.0
else:
    cluster = nationwide_cluster(nodes_per_group=4)
    load = 8_000.0
deployment = GeoDeployment(
    cluster,
    protocol_by_name("massbft"),
    make_workload("ycsb-a"),
    offered_load=load,
    seed=7,
)
if churn:
    deployment.join_node_at(0, 0.25)
    deployment.crash_node_at(1, 2, 0.35)
    tracer = deployment.attach_tracer()
metrics = deployment.run(duration=0.8, warmup=0.2)
digests = []
for gid in range(deployment.n_groups):
    store = deployment.observer_of(gid).pipeline.store
    sample = sorted(store._data)[:64]
    digests.append(store.state_digest(sample=sample).hex())
fingerprint = {{
    "committed": metrics.committed,
    "events": deployment.sim.events_processed,
    "digests": digests,
}}
if churn:
    with tempfile.TemporaryDirectory() as tmp:
        path = export_span_jsonl(
            tracer.build(), str(pathlib.Path(tmp) / "spans.jsonl")
        )
        span_bytes = pathlib.Path(path).read_bytes()
    fingerprint["summary"] = metrics.summary()
    fingerprint["spans_sha256"] = hashlib.sha256(span_bytes).hexdigest()
    fingerprint["span_count"] = span_bytes.count(b"\\n")
print(json.dumps(fingerprint, sort_keys=True))
"""


def _run_once(churn: bool = False) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", FINGERPRINT_TEMPLATE.format(src=SRC, churn=churn)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_seeded_run_is_bit_identical_across_processes():
    first = _run_once()
    second = _run_once()
    assert first["committed"] > 0
    assert first["events"] > 0
    assert all(d for d in first["digests"])
    assert first == second


def test_traced_churn_run_is_bit_identical_across_processes():
    first = _run_once(churn=True)
    second = _run_once(churn=True)
    assert first["committed"] > 0
    assert first["span_count"] > 0
    assert first == second

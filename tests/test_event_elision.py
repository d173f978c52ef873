"""Exactness of event elision against the eager reference.

The simulator does not schedule events whose callback cannot act (bare
CPU charges, LAN notices at members that do not read them, PBFT commits
at non-leaders) and signs quorum certificates only when read. Each
scenario here runs twice — as is, and under
:func:`tests.eager_reference.eager` with every such event scheduled and
every certificate signed as formed — and requires the runs to agree on
everything observable: every event that can act at the same
``(time, seq)``, commits and the metrics summary, the ``EntryExecuted``
stream, every observer's store, every node's CPU queue, the WAN/LAN byte
counters and the next message id; in the traced run also every
``ValueCertified`` (certificate fields included), the checker's records
and the span JSONL.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import tempfile

import pytest

from repro.check.invariants import InvariantSuite
from repro.check.trace import EventRecorder
from repro.ledger import transactions
from repro.obs.export import export_span_jsonl
from repro.protocols import GeoDeployment, protocol_by_name
from repro.protocols.runtime.events import EntryExecuted, ValueCertified
from repro.topology import nationwide_cluster, scaled_cluster
from repro.workloads import make_workload
from tests.eager_reference import EventLog, eager


def deployment(cluster, protocol="massbft", load=8_000.0, seed=7, **options):
    return GeoDeployment(
        cluster,
        protocol_by_name(protocol),
        make_workload("ycsb-a"),
        offered_load=load,
        seed=seed,
        **options,
    )


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def fingerprint(build, duration, warmup=0.1, traced=False):
    """Run ``build()`` and return everything the two paths must agree on."""
    # Transaction ids come from one process-wide sequence and reach the
    # stores: start each run where a fresh process does.
    saved = transactions._next_tx_id
    transactions._next_tx_id = 1
    try:
        d = build()
        executed = hashlib.sha256()
        d.bus.subscribe(
            EntryExecuted,
            lambda e: executed.update(repr(dataclasses.astuple(e)).encode()),
        )
        certified, suite, recorder, tracer = [], None, None, None
        if traced:
            tracer = d.attach_tracer()
            suite = InvariantSuite.attach(d)
            recorder = EventRecorder.attach(d.bus)
            d.bus.subscribe(
                ValueCertified,
                lambda e: certified.append(
                    (
                        e.gid, e.at, e.kind, e.entry_id, e.signer_count,
                        e.quorum, e.certificate.statement,
                        e.certificate.signatures, e.certificate.epoch,
                    )
                ),
            )
        log = EventLog()
        with log.recording():
            metrics = d.run(duration=duration, warmup=warmup)
    finally:
        transactions._next_tx_id = saved
    network = d.network
    out = {
        "committed": metrics.committed,
        "summary": metrics.summary(),
        "executed": executed.hexdigest(),
        "stores": [
            (addr, _sha(sorted(node.pipeline.store.scan_prefix(""))),
             node.pipeline.store.writes_applied)
            for addr, node in sorted(d.nodes.items())
            if node.is_observer
        ],
        "cpu": [
            (addr, node.cpu.busy_time, node.cpu.jobs, node.cpu.next_free)
            for addr, node in sorted(d.nodes.items())
        ],
        "bytes": (
            network.wan_bytes_total,
            network.lan_bytes_total,
            sorted(network.wan_bytes_by_node.items()),
        ),
        "next_msg_id": network._next_msg_id,
        "acting_events": log.acting,
    }
    if traced:
        assert suite.audit(duration) == []
        with tempfile.TemporaryDirectory() as tmp:
            path = export_span_jsonl(tracer.build(), f"{tmp}/spans.jsonl")
            out["spans_sha256"] = hashlib.sha256(
                pathlib.Path(path).read_bytes()
            ).hexdigest()
        out["certified"] = certified
        out["records"] = recorder.records
    return out, log, d


def assert_exact(build, duration, warmup=0.1, traced=False):
    lazy, lazy_log, d = fingerprint(build, duration, warmup, traced)
    with eager():
        reference, eager_log, _ = fingerprint(build, duration, warmup, traced)
    assert lazy["committed"] > 0
    for key in reference:
        assert lazy[key] == reference[key], key
    # The elided events really were elided, and were most of the inert ones.
    assert eager_log.inert > lazy_log.inert
    return d


def test_massbft_3x7():
    assert_exact(lambda: deployment(nationwide_cluster(7), load=12_000.0), 0.6)


def test_massbft_3x16():
    cluster = scaled_cluster(n_groups=3, nodes_per_group=16)
    assert_exact(lambda: deployment(cluster, load=2_000.0), 0.4)


def test_every_member_observes():
    assert_exact(
        lambda: deployment(nationwide_cluster(4), observers="all"), 0.5
    )


@pytest.mark.parametrize("protocol", ["ebr", "steward"])
def test_round_and_slot_ordering(protocol):
    assert_exact(lambda: deployment(nationwide_cluster(4), protocol), 0.6)


#: Leader moves a few hundred microseconds apart land at different points
#: of the rounds in flight (fig08 inputs: 3 x 7 nodes, 30k txn/s/group).
@pytest.mark.parametrize("at", [1.0, 1.0013, 1.0027, 1.0041])
def test_leader_move_mid_round(at):
    def build():
        d = deployment(nationwide_cluster(7), load=30_000.0, seed=0)
        d.move_leader_at(1, at)
        return d

    d = assert_exact(build, 1.25, warmup=0.5)
    assert d.groups[1].pbft.leader.index == 1


def test_crashed_leader_rotates_at_propose():
    def build():
        d = deployment(nationwide_cluster(4))
        d.crash_node_at(1, 0, 0.3)
        return d

    d = assert_exact(build, 0.6)
    assert d.groups[1].pbft.leader.index == 1


def test_join_and_leave_of_the_leader():
    def build():
        d = deployment(nationwide_cluster(4))
        d.join_node_at(0, 0.2)
        d.leave_node_at(1, 0, 0.3)
        return d

    d = assert_exact(build, 0.6)
    assert len(d.groups[0].members) == 5
    assert d.groups[1].pbft.leader.index != 0


def test_group_crash_with_takeover():
    def build():
        d = deployment(nationwide_cluster(4), takeover_timeout=0.25)
        d.crash_group_at(2, 0.3)
        return d

    d = assert_exact(build, 1.0)
    assert any(
        state.takeover_leader is not None
        for state in d.groups[0].global_phase.instances.values()
    )


def test_traced_churn_run():
    def build():
        d = deployment(
            scaled_cluster(n_groups=3, nodes_per_group=5), load=1_500.0
        )
        d.join_node_at(0, 0.25)
        d.crash_node_at(1, 2, 0.35)
        d.move_leader_at(2, 0.3)
        return d

    assert_exact(build, 0.8, warmup=0.2, traced=True)


def test_untraced_run_signs_no_certificate():
    d = deployment(nationwide_cluster(4))
    d.run(duration=0.4, warmup=0.1)
    rounds = [r for g in d.groups.values() for r in g.pbft._rounds]
    assert rounds
    assert all(r.args[2]._signed is None for r in rounds)

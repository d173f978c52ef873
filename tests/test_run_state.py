"""Run state bounded by the pipeline window.

An entry holds its batch (and the conflict plan cached on it) and its
payload bytes only until every live observer has executed it; a crash,
or a graceful leaver going dark, releases whatever was waiting on that
observer alone. :class:`RunMetrics` keeps 8 B per committed transaction
plus a fixed cost per entry. A released entry still answers
``tx_count``, ``payload_size``, ``size_bytes`` and ``digest``, and fails
loudly, with :class:`EntryReleased`, when its payload or batch is asked
for.
"""

import sys
from array import array

import pytest

from repro.core.entry import EntryId, EntryReleased, LogEntry
from repro.ledger.transactions import Transaction, TxBatch
from repro.protocols import GeoDeployment, protocol_by_name
from repro.protocols.runtime.events import EntryBatched
from repro.protocols.runtime.load import PIPELINE_WINDOW
from repro.topology import nationwide_cluster
from repro.workloads import make_workload


def deployment_3x4(**options):
    return GeoDeployment(
        nationwide_cluster(nodes_per_group=4),
        protocol_by_name("massbft"),
        make_workload("ycsb-a"),
        offered_load=8_000.0,
        seed=5,
        **options,
    )


def executed_by(node, entry_id):
    """Subchains grow in sequence order, so a ledger's subchain height
    says which of a group's entries the observer has executed."""
    return node.ledger.subchains[entry_id.gid].height >= entry_id.seq


def live_observers(deployment):
    return [
        node
        for node in deployment.nodes.values()
        if node.is_observer and not node.crashed
    ]


def retained_bytes(obj, seen):
    """Bytes reachable from ``obj``: containers, arrays, slots and
    instance dicts."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        return size + sum(
            retained_bytes(k, seen) + retained_bytes(v, seen) for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return size + sum(retained_bytes(item, seen) for item in obj)
    if isinstance(obj, (str, bytes, int, float, array, type(None))):
        return size
    if hasattr(obj, "__dict__"):
        size += retained_bytes(vars(obj), seen)
    slots = [s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ())]
    return size + sum(retained_bytes(getattr(obj, s), seen) for s in slots)


#: RunMetrics' per-entry cost: a row (16 B), the phase stamps (a dict per
#: entry) and the batch-size samples, with room to spare.
PER_ENTRY_BYTES = 640


@pytest.mark.parametrize(
    "variant",
    [
        "plain",
        "crash_group_0",
        "observers_all",
        "observer_leaves",
        "real_plain",
        "real_crash_group_0",
        "real_observers_all",
    ],
)
def test_only_entries_some_live_observer_lacks_hold_a_batch(variant):
    real = variant.startswith("real_")
    variant = variant.removeprefix("real_")
    options = {"coding": "real", "execution": "full"} if real else {}
    deployment = deployment_3x4(
        observers="leaders" if variant in ("plain", "crash_group_0") else "all",
        **options,
    )
    if variant == "crash_group_0":
        deployment.crash_group_at(0, 1.0)
    if variant == "observer_leaves":
        # A graceful leave announces no fault; the leaver going dark
        # must still stop it holding entries back.
        deployment.leave_node_at(1, 3, 1.0)
    metrics = deployment.run(duration=2.0, warmup=0.5)

    live = live_observers(deployment)
    entries = deployment.entries
    held = {e for e, entry in entries.items() if entry.released_at is None}
    lacking = {e for e in entries if not all(executed_by(n, e) for n in live)}
    assert held == lacking
    # The payload bytes go with the batch.
    assert held == {e for e, entry in entries.items() if entry._payload is not None}
    assert len(entries) - len(held) > 50
    for entry_id in set(entries) - held:
        for name in ("batch", "payload"):
            with pytest.raises(EntryReleased):
                getattr(entries[entry_id], name)
    if real and variant != "crash_group_0":
        # Without a stall, what is held is what is in flight: at most a
        # pipeline window of entries per group, a few percent of the run.
        kept = sum(len(entries[e].payload) for e in held)
        largest = max(entry.payload_size for entry in entries.values())
        assert kept <= len(deployment.groups) * PIPELINE_WINDOW * largest
        assert kept < sum(entry.payload_size for entry in entries.values()) // 10

    # 8 B per committed transaction (the latency column, plus its growth
    # slack of at most 1/16) and a fixed cost per entry.
    assert metrics.committed > 5_000
    assert len(metrics.latencies) == metrics.committed
    assert metrics.latencies.itemsize == 8
    retained = retained_bytes(metrics, set())
    assert retained <= 8 * metrics.committed * 17 // 16 + PER_ENTRY_BYTES * len(
        entries
    ) + 16_384


def test_a_crash_releases_what_waited_on_the_crashed_observer_alone():
    deployment = deployment_3x4()
    deployment.crash_group_at(1, 1.0)
    deployment.run(duration=2.0, warmup=0.5)
    at_crash = [e for e in deployment.entries.values() if e.released_at == 1.0]
    assert at_crash
    crashed = deployment.observer_of(1)
    for entry in at_crash:
        assert not executed_by(crashed, entry.entry_id)
        assert all(executed_by(n, entry.entry_id) for n in live_observers(deployment))


def test_released_entry_keeps_its_size_count_and_digest():
    batch = TxBatch(
        [Transaction("w", (), ("k",), payload_bytes=40, created_at=0.1)] * 3
    )
    entry = LogEntry(gid=1, seq=4, payload=b"body", batch=batch, declared_size=500)
    before = (entry.tx_count, entry.payload_size, entry.size_bytes, entry.digest)
    entry.release(2.5)
    assert (entry.tx_count, entry.payload_size, entry.size_bytes, entry.digest) == before
    assert before[:3] == (3, 4, 500)
    for name in ("payload", "batch", "transactions"):
        with pytest.raises(EntryReleased, match=r"e1,4 .* t=2\.500000 s") as raised:
            getattr(entry, name)
        assert raised.value.entry_id == EntryId(1, 4)
        assert raised.value.released_at == 2.5
        assert not isinstance(raised.value, AttributeError)
    # Release caches the digest even when nothing read it before, and an
    # entry without a declared size keeps the payload's.
    unread = LogEntry(gid=1, seq=4, payload=b"body", batch=batch)
    unread.release(2.5)
    assert (unread.digest, unread.size_bytes) == (before[3], 4)


def test_run_entries_keep_what_later_readers_use():
    deployment = deployment_3x4()
    formed = {}

    def on_batched(event):
        entry = deployment.entries[event.entry_id]
        formed[event.entry_id] = (event.tx_count, entry.size_bytes, entry.digest)

    deployment.bus.subscribe(EntryBatched, on_batched)
    deployment.run(duration=1.0, warmup=0.25)
    released = [e for e in deployment.entries.values() if e.released_at is not None]
    assert len(released) > 20
    for entry in released:
        assert (entry.tx_count, entry.size_bytes, entry.digest) == formed[
            entry.entry_id
        ]


def test_executing_a_released_entry_again_raises_before_recording_it():
    deployment = deployment_3x4()
    deployment.run(duration=1.0, warmup=0.25)
    observer = deployment.observer_of(0)
    entry = next(
        e
        for e in deployment.entries.values()
        if e.released_at is not None and e.gid == 0
    )
    height = observer.ledger.height
    with pytest.raises(EntryReleased) as raised:
        observer.orderer.on_execute(entry.entry_id)
    assert raised.value.entry_id == entry.entry_id
    assert raised.value.released_at == entry.released_at
    assert observer.ledger.height == height

"""Tests for transactions, state store, Aria execution, blocks, ledger."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entry import LogEntry
from repro.ledger.block import GENESIS_HASH, Subchain
from repro.ledger.execution import AriaExecutor, ExecutionPipeline
from repro.ledger.ledger import GlobalLedger
from repro.ledger.state import KVStore, table_key
from repro.ledger.transactions import Transaction, serialize_batch


def tx(kind="t", reads=(), writes=(), **params):
    return Transaction(
        kind=kind,
        read_keys=tuple(reads),
        write_keys=tuple(writes),
        params=dict(params),
    )


class TestTransaction:
    def test_wire_size_includes_envelope(self):
        t = tx(writes=("k",))
        assert t.size_bytes > 64  # at least the signature

    def test_explicit_payload_size(self):
        t = Transaction(kind="t", read_keys=(), write_keys=(), payload_bytes=100)
        assert t.size_bytes == 80 + 100

    def test_serialize_pads_to_wire_size(self):
        t = Transaction(kind="t", read_keys=("a",), write_keys=(), payload_bytes=50)
        assert len(t.serialize()) == t.size_bytes

    def test_serialize_batch_roundtrippable_lengths(self):
        batch = tuple(tx(writes=(f"k{i}",)) for i in range(5))
        blob = serialize_batch(batch)
        # Parse the length-prefixed framing back out.
        offset, count = 0, 0
        while offset < len(blob):
            length = int.from_bytes(blob[offset : offset + 4], "big")
            offset += 4 + length
            count += 1
        assert count == 5 and offset == len(blob)

    def test_unique_ids(self):
        assert tx().tx_id != tx().tx_id


class TestKVStore:
    def test_basic_rw(self):
        store = KVStore()
        store.apply_writes({table_key("t", 1): {"a": 1}})
        assert store.read_row("t", 1) == {"a": 1}
        assert store.read_row("t", 2, "default") == "default"
        assert table_key("t", 1) in store

    def test_apply_writes_batch(self):
        store = KVStore()
        store.apply_writes({"a": 1, "b": 2})
        assert store.get("a") == 1
        assert store.writes_applied == 2
        assert store.batches_applied == 1

    def test_scan_prefix(self):
        store = KVStore()
        store.apply_writes({"t/1": "x", "t/2": "y", "u/1": "z"})
        assert dict(store.scan_prefix("t/")) == {"t/1": "x", "t/2": "y"}

    def test_state_digest_changes_with_writes(self):
        store = KVStore()
        d0 = store.state_digest()
        store.apply_writes({"a": 1})
        assert store.state_digest() != d0

    def test_state_digest_sampling(self):
        s1, s2 = KVStore(), KVStore()
        s1.apply_writes({"a": 1})
        s2.apply_writes({"a": 2})
        assert s1.state_digest(sample=["a"]) != s2.state_digest(sample=["a"])


class TestAriaExecutor:
    def test_no_conflicts_all_commit(self):
        ex = AriaExecutor()
        batch = [tx(writes=(f"k{i}",)) for i in range(10)]
        result = ex.execute_batch(batch)
        assert len(result.committed) == 10 and not result.aborted

    def test_waw_first_writer_wins(self):
        ex = AriaExecutor()
        # Read-modify-write transactions: the later writer's read was
        # stale, so it aborts (first writer wins).
        first = tx(reads=("hot",), writes=("hot",))
        second = tx(reads=("hot",), writes=("hot",))
        result = ex.execute_batch([first, second])
        assert result.committed == [first]
        assert result.aborted == [second]

    def test_blind_writers_all_commit_last_wins(self):
        store = KVStore()
        ex = AriaExecutor(store)
        ex.register_logic("set", lambda s, t: {"k": t.params["v"]})
        first = tx(kind="set", writes=("k",), v=1)
        second = tx(kind="set", writes=("k",), v=2)
        result = ex.execute_batch([first, second])
        assert len(result.committed) == 2
        assert store.get("k") == 2

    def test_raw_aborts_reader(self):
        ex = AriaExecutor()
        writer = tx(writes=("k",))
        reader = tx(reads=("k",))
        result = ex.execute_batch([writer, reader])
        assert result.committed == [writer]
        assert result.aborted == [reader]

    def test_reader_before_writer_both_commit(self):
        # Aria reads from the batch-start snapshot: a read ordered before
        # the write saw consistent data.
        ex = AriaExecutor()
        reader = tx(reads=("k",))
        writer = tx(writes=("k",))
        result = ex.execute_batch([reader, writer])
        assert len(result.committed) == 2

    def test_write_write_read_chain(self):
        ex = AriaExecutor()
        t1 = tx(writes=("a",))  # blind write commits
        t2 = tx(reads=("a",), writes=("b",))  # stale read of a: aborts
        t3 = tx(reads=("b",))  # b was reserved by t2: aborts
        result = ex.execute_batch([t1, t2, t3])
        assert result.committed == [t1]
        assert result.aborted == [t2, t3]

    def test_full_logic_applies_writes(self):
        store = KVStore()
        store.apply_writes({"acct/1": 100})
        ex = AriaExecutor(store)
        ex.register_logic(
            "debit",
            lambda s, t: {"acct/1": s.get("acct/1") - t.params["amt"]},
        )
        result = ex.execute_batch(
            [tx(kind="debit", reads=("acct/1",), writes=("acct/1",), amt=30)]
        )
        assert len(result.committed) == 1
        assert store.get("acct/1") == 70

    def test_empty_batch(self):
        result = AriaExecutor().execute_batch([])
        assert result.attempts == 0 and result.abort_rate == 0.0

    def test_determinism_across_replicas(self):
        batches = []
        rng = random.Random(5)
        keys = [f"k{i}" for i in range(8)]
        for _ in range(6):
            batches.append(
                [
                    tx(
                        reads=tuple(rng.sample(keys, 2)),
                        writes=tuple(rng.sample(keys, 2)),
                    )
                    for _ in range(12)
                ]
            )
        outcomes = []
        for _ in range(2):
            ex = AriaExecutor()
            out = []
            for batch in batches:
                result = ex.execute_batch(list(batch))
                out.append(tuple(t.tx_id for t in result.committed))
            outcomes.append(out)
        assert outcomes[0] == outcomes[1]

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_property_committed_disjoint_write_reservations(self, data):
        """No two committed transactions in one batch wrote the same key."""
        keys = [f"k{i}" for i in range(5)]
        batch = []
        for _ in range(data.draw(st.integers(1, 15))):
            writes = data.draw(st.sets(st.sampled_from(keys), max_size=3))
            reads = data.draw(st.sets(st.sampled_from(keys), max_size=3))
            batch.append(tx(reads=tuple(reads), writes=tuple(writes)))
        result = AriaExecutor().execute_batch(batch)
        seen = set()
        for t in result.committed:
            if t.read_keys:  # blind writers may legally overlap
                assert not (set(t.write_keys) & seen)
            seen |= set(t.write_keys)


class TestExecutionPipeline:
    def test_aborted_carry_over_and_eventually_commit(self):
        pipe = ExecutionPipeline()
        hot = [tx(reads=("hot",), writes=("hot",)) for _ in range(4)]
        result = pipe.execute_entry(hot)
        assert len(result.commit_times) == 1 and result.aborted == 3
        committed = len(result.commit_times)
        for _ in range(5):
            committed += len(pipe.execute_entry([]).commit_times)
        assert committed == 4
        assert not pipe.carryover

    def test_retry_is_pipeline_state_and_marks_the_retried_write(self):
        pipe = ExecutionPipeline()
        t1 = tx(reads=("h",), writes=("h",))
        t2 = tx(reads=("h",), writes=("h",))
        pipe.execute_entry([t1, t2])
        # The abort is recorded in the pipeline, not on the (shared) object.
        assert pipe.carryover == [t2]
        assert pipe.store.get("h") == ("v", t1.tx_id, 0)
        pipe.execute_entry([])
        # A carried transaction has aborted exactly once.
        assert pipe.store.get("h") == ("v", t2.tx_id, 1)
        assert not pipe.carryover

    def test_abort_rate(self):
        pipe = ExecutionPipeline()
        pipe.execute_entry(
            [tx(reads=("h",), writes=("h",)), tx(reads=("h",), writes=("h",))]
        )
        assert pipe.abort_rate == pytest.approx(0.5)


class TestBlocksAndLedger:
    def entry(self, gid, seq):
        return LogEntry(gid=gid, seq=seq, payload=f"{gid}:{seq}".encode())

    def test_subchain_linkage(self):
        chain = Subchain(0)
        chain.append_entry(self.entry(0, 1))
        chain.append_entry(self.entry(0, 2))
        assert chain.height == 2
        assert chain.verify()
        assert chain.blocks[0].parent_hash == GENESIS_HASH
        assert chain.blocks[1].parent_hash == chain.blocks[0].block_hash

    def test_subchain_rejects_wrong_group_or_gap(self):
        chain = Subchain(0)
        with pytest.raises(ValueError):
            chain.append_entry(self.entry(1, 1))
        with pytest.raises(ValueError):
            chain.append_entry(self.entry(0, 5))

    def test_ledger_orders_and_chains(self):
        ledger = GlobalLedger(2)
        ledger.append(self.entry(0, 1))
        ledger.append(self.entry(1, 1))
        ledger.append(self.entry(0, 2))
        assert [r.position for r in ledger.records] == [0, 1, 2]
        assert ledger.height == 3
        assert len(ledger.order()) == 3

    def test_ledger_matches_detects_divergence(self):
        a, b = GlobalLedger(2), GlobalLedger(2)
        a.append(self.entry(0, 1))
        b.append(self.entry(0, 1))
        assert a.matches(b)
        a.append(self.entry(1, 1))
        b.append(self.entry(0, 2))  # divergent order
        assert not a.matches(b)

    def test_ledger_prefix_match(self):
        a, b = GlobalLedger(1), GlobalLedger(1)
        a.append(self.entry(0, 1))
        a.append(self.entry(0, 2))
        b.append(self.entry(0, 1))
        assert a.matches(b)  # b is a prefix of a

    def test_divergence_pinpoints_first_forked_height(self):
        a, b = GlobalLedger(2), GlobalLedger(2)
        for gid, seq in [(0, 1), (1, 1), (0, 2)]:
            a.append(self.entry(gid, seq))
            b.append(self.entry(gid, seq))
        a.append(self.entry(0, 3))
        b.append(self.entry(1, 2))  # fork at height 3
        a.append(self.entry(1, 2))
        b.append(self.entry(0, 3))
        assert a.divergence(b) == 3
        assert b.divergence(a) == 3

    def test_divergence_none_for_matching_prefix(self):
        a, b = GlobalLedger(1), GlobalLedger(1)
        a.append(self.entry(0, 1))
        a.append(self.entry(0, 2))
        b.append(self.entry(0, 1))
        assert a.divergence(b) is None  # prefix, not a fork
        assert GlobalLedger(1).divergence(GlobalLedger(1)) is None

    def test_divergence_at_genesis(self):
        a, b = GlobalLedger(2), GlobalLedger(2)
        a.append(self.entry(0, 1))
        b.append(self.entry(1, 1))
        assert a.divergence(b) == 0

"""Tests for vector timestamps and Algorithm 2 deterministic ordering,
including the hypothesis agreement property: any interleaving of the same
assignment events yields the same execution order on every node."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entry import EntryId
from repro.core.ordering import DeterministicOrderer, RoundBasedOrderer
from repro.core.vts import GroupClock, VectorTimestamp


class TestGroupClock:
    def test_monotonic_advance(self):
        clk = GroupClock(0)
        clk.advance_to(5)
        clk.advance_to(3)  # stale, ignored
        assert clk.read() == 5

    def test_initial_zero(self):
        assert GroupClock(1).read() == 0


class TestVectorTimestamp:
    def test_assign_and_complete(self):
        vts = VectorTimestamp(3)
        assert not vts.complete
        for g in range(3):
            vts.assign(g, g + 1)
        assert vts.complete
        assert list(vts.values) == [1, 2, 3]

    def test_reassign_same_value_ok(self):
        vts = VectorTimestamp(2)
        vts.assign(0, 5)
        vts.assign(0, 5)

    def test_conflicting_reassign_rejected(self):
        vts = VectorTimestamp(2)
        vts.assign(0, 5)
        with pytest.raises(ValueError):
            vts.assign(0, 6)

    def test_infer_only_raises_lower_bound(self):
        vts = VectorTimestamp(2)
        vts.infer(0, 3)
        vts.infer(0, 2)  # lower, ignored
        assert vts.values[0] == 3
        assert not vts.is_set[0]

    def test_infer_after_assign_is_noop(self):
        vts = VectorTimestamp(2)
        vts.assign(0, 5)
        vts.infer(0, 99)
        assert vts.values[0] == 5

    def test_assign_below_inferred_bound_rejected(self):
        vts = VectorTimestamp(2)
        vts.infer(0, 10)
        with pytest.raises(ValueError):
            vts.assign(0, 7)


def run_scenario(orderer: DeterministicOrderer, events):
    for event in events:
        kind = event[0]
        if kind == "ts":
            _, assigner, gid, seq, ts = event
            orderer.on_timestamp(assigner, gid, seq, ts)
        else:
            _, gid, seq = event
            orderer.mark_available(gid, seq)


class TestDeterministicOrderer:
    def full_entry_events(self, gid, seq, vts):
        events = [("avail", gid, seq)]
        for assigner, ts in enumerate(vts):
            if assigner != gid:
                events.append(("ts", assigner, gid, seq, ts))
        return events

    def test_paper_figure6_order(self):
        # e_{1,7}=<...>: reproduce the Fig 6 comparison outcome for
        # e_{2,6} <6,6,4> vs e_{3,5} <6,6,5> (0-indexed here as groups
        # 0/1/2): the entry with the smaller third element goes first.
        executed = []
        orderer = DeterministicOrderer(3, executed.append)
        # Build up both groups' entries 1..6 and 1..5 plus group0's 1..6.
        for seq in range(1, 7):
            run_scenario(orderer, self.full_entry_events(0, seq, (seq, seq, seq)))
            run_scenario(orderer, self.full_entry_events(1, seq, (seq, seq, seq)))
            run_scenario(orderer, self.full_entry_events(2, seq, (seq, seq, seq)))
        assert len(executed) >= 12

    def test_fast_group_not_blocked_by_slow_group(self):
        """The core MassBFT property (Fig 2): a fast group's backlog of
        entries all execute as soon as the slow group's next assignment
        round arrives — throughput decouples from the slow group's rate
        (round-based ordering would cap the fast group at one entry per
        slow-group entry; see TestRoundBasedOrderer below)."""
        executed = []
        orderer = DeterministicOrderer(2, executed.append)
        # Fast group 0 proposes entries 1..5; slow group 1 assigns its
        # (non-advancing) clock to each; nothing executes yet because
        # head_1's vts[0] is only inferred.
        for seq in range(1, 6):
            orderer.mark_available(0, seq)
            orderer.on_timestamp(1, 0, seq, 0)  # slow group's clock stays 0
        assert executed == []
        # The slow group's first entry finally shows up and group 0
        # assigns clk_0 = 5 to it: the entire fast backlog drains at once.
        orderer.on_timestamp(0, 1, 1, 5)
        assert executed == [EntryId(0, s) for s in range(1, 6)]

    def test_stalls_without_crashed_group_assignments(self):
        """Fig 15: without vts[j] from a (crashed) group, nothing executes."""
        executed = []
        orderer = DeterministicOrderer(2, executed.append)
        orderer.mark_available(0, 1)
        # No timestamp from group 1 at all.
        assert executed == []

    def test_unavailable_entry_blocks_execution(self):
        executed = []
        orderer = DeterministicOrderer(2, executed.append)
        orderer.on_timestamp(1, 0, 1, 0)
        orderer.on_timestamp(0, 1, 1, 2)  # resolves head comparison
        assert executed == []  # e0,1 wins the ordering but payload absent
        orderer.mark_available(0, 1)
        assert executed == [EntryId(0, 1)]

    def test_same_group_entries_execute_in_seq_order(self):
        executed = []
        orderer = DeterministicOrderer(2, executed.append)
        # Entry payloads arrive out of order (seq 2 before seq 1); the
        # assigner's timestamp stream itself stays in order (it is
        # replicated through one Raft instance).
        orderer.mark_available(0, 2)
        orderer.on_timestamp(1, 0, 1, 0)
        orderer.on_timestamp(1, 0, 2, 1)
        orderer.mark_available(0, 1)
        orderer.on_timestamp(0, 1, 1, 3)  # unblocks the head comparison
        assert executed == [EntryId(0, 1), EntryId(0, 2)]

    def test_tolerant_mode_keeps_first(self):
        orderer = DeterministicOrderer(2, lambda e: None)
        orderer.on_timestamp(1, 0, 1, 5)
        orderer.on_timestamp(1, 0, 1, 6)
        assert orderer.conflicting_assignments == 1
        assert orderer.states[EntryId(0, 1)].vts.values[1] == 5

    @given(data=st.data(), n_groups=st.integers(min_value=2, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_property_agreement_under_any_interleaving(self, data, n_groups):
        """Two nodes fed the same event set in different orders execute
        the same prefix — the Theorem V.6 agreement property."""
        n_entries = data.draw(st.integers(min_value=1, max_value=5))
        # Construct a consistent set of assignments: per-group clocks
        # assign non-decreasing timestamps in seq order.
        events = []
        clocks = [0] * n_groups  # each assigner's clock is global
        for gid in range(n_groups):
            for seq in range(1, n_entries + 1):
                events.append(("avail", gid, seq))
                for assigner in range(n_groups):
                    if assigner == gid:
                        continue
                    bump = data.draw(st.integers(min_value=0, max_value=2))
                    clocks[assigner] += bump
                    events.append(("ts", assigner, gid, seq, clocks[assigner]))
        # Two independent shuffles, constrained to keep each assigner's
        # timestamp stream in its original order (assignments replicate
        # through the assigner's own Raft instance, a single ordered log).
        original_position = {id(e): i for i, e in enumerate(events)}

        def legal_shuffle():
            perm = data.draw(st.permutations(events))
            streams = {}
            for e in events:  # original order per assigner
                if e[0] == "ts":
                    streams.setdefault(e[1], []).append(e)
            consumed = {k: 0 for k in streams}
            out = []
            for e in perm:
                if e[0] == "ts":
                    assigner = e[1]
                    out.append(streams[assigner][consumed[assigner]])
                    consumed[assigner] += 1
                else:
                    out.append(e)
            return out

        order_a, order_b = [], []
        oa = DeterministicOrderer(n_groups, order_a.append)
        ob = DeterministicOrderer(n_groups, order_b.append)
        run_scenario(oa, legal_shuffle())
        run_scenario(ob, legal_shuffle())
        # Consistent inputs never conflict (first-wins drops nothing).
        assert oa.conflicting_assignments == ob.conflicting_assignments == 0
        common = min(len(order_a), len(order_b))
        assert order_a[:common] == order_b[:common]


class TestRoundBasedOrderer:
    def test_round_completes_when_all_groups_deliver(self):
        executed = []
        orderer = RoundBasedOrderer(3, executed.append)
        orderer.on_decided(EntryId(2, 1), -1)
        orderer.on_decided(EntryId(0, 1), -1)
        assert executed == []
        orderer.on_decided(EntryId(1, 1), -1)
        assert executed == [EntryId(0, 1), EntryId(1, 1), EntryId(2, 1)]

    def test_gid_order_within_round(self):
        executed = []
        orderer = RoundBasedOrderer(2, executed.append)
        orderer.on_decided(EntryId(1, 1), -1)
        orderer.on_decided(EntryId(0, 1), -1)
        assert [e.gid for e in executed] == [0, 1]

    def test_slow_group_blocks_fast_group(self):
        """The Fig 2 pathology that MassBFT eliminates."""
        executed = []
        orderer = RoundBasedOrderer(2, executed.append)
        for seq in range(1, 10):
            orderer.on_decided(EntryId(0, seq), -1)  # fast group races ahead
        assert executed == []  # all blocked on group 1's round 1

    def test_out_of_order_delivery(self):
        executed = []
        orderer = RoundBasedOrderer(2, executed.append)
        orderer.on_decided(EntryId(0, 2), -1)
        orderer.on_decided(EntryId(1, 2), -1)
        orderer.on_decided(EntryId(1, 1), -1)
        orderer.on_decided(EntryId(0, 1), -1)
        assert executed == [
            EntryId(0, 1),
            EntryId(1, 1),
            EntryId(0, 2),
            EntryId(1, 2),
        ]

    def test_invalid_seq(self):
        orderer = RoundBasedOrderer(2, lambda e: None)
        with pytest.raises(ValueError):
            orderer.on_decided(EntryId(0, 0), -1)

"""Tests for Algorithm 1: transfer-plan generation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transfer_plan import faulty_bound, generate_transfer_plan

group_size = st.integers(min_value=1, max_value=40)


def surviving_chunks(plan, faulty_senders, faulty_receivers):
    """Chunk ids guaranteed delivered given faulty node index sets."""
    return {
        a.chunk
        for a in plan.assignments
        if a.sender not in faulty_senders and a.receiver not in faulty_receivers
    }


class TestPaperCaseStudy:
    """Figure 5b: a 4-node group sends to a 7-node group."""

    def test_case_study_numbers(self):
        plan = generate_transfer_plan(4, 7)
        assert plan.n_total == 28
        assert plan.nc1 == 7
        assert plan.nc2 == 4
        assert plan.n_parity == 1 * 7 + 2 * 4  # f1*nc1 + f2*nc2 = 15
        assert plan.n_data == 13
        assert plan.overhead == pytest.approx(28 / 13)  # ~2.15 copies

    def test_case_study_beats_full_copy(self):
        plan = generate_transfer_plan(4, 7)
        full_copy_overhead = faulty_bound(4) + faulty_bound(7) + 1  # 4 copies
        assert plan.overhead < full_copy_overhead

    def test_equal_seven_node_groups(self):
        # The paper's main deployment: 7-node groups everywhere.
        plan = generate_transfer_plan(7, 7)
        assert plan.n_total == 7
        assert plan.n_data == 3
        assert plan.overhead == pytest.approx(7 / 3)


class TestPlanStructure:
    def test_every_chunk_sent_and_received_exactly_once(self):
        plan = generate_transfer_plan(4, 6)
        chunks = [a.chunk for a in plan.assignments]
        assert sorted(chunks) == list(range(plan.n_total))

    def test_balanced_send_and_receive_load(self):
        plan = generate_transfer_plan(5, 3)
        for sender in range(5):
            assert len(plan.chunks_sent_by(sender)) == plan.nc1
        for receiver in range(3):
            assert len(plan.by_receiver[receiver]) == plan.nc2

    def test_sender_and_receiver_views_consistent(self):
        plan = generate_transfer_plan(4, 7)
        from_senders = {
            (a.chunk, a.sender, a.receiver)
            for s in range(4)
            for a in plan.chunks_sent_by(s)
        }
        from_receivers = {
            (a.chunk, a.sender, a.receiver)
            for r in range(7)
            for a in plan.by_receiver[r]
        }
        assert from_senders == from_receivers

    def test_out_of_range_nodes(self):
        plan = generate_transfer_plan(4, 7)
        with pytest.raises(IndexError):
            plan.chunks_sent_by(4)
        with pytest.raises(IndexError):
            plan.chunks_sent_by(-1)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            generate_transfer_plan(0, 4)
        with pytest.raises(ValueError):
            generate_transfer_plan(4, -1)

    def test_faulty_bound(self):
        assert faulty_bound(1) == 0
        assert faulty_bound(4) == 1
        assert faulty_bound(7) == 2
        assert faulty_bound(40) == 13


class TestWorstCaseSurvival:
    """The parity budget covers the paper's worst case: f1 faulty senders
    and f2 faulty receivers with disjoint chunk sets."""

    @given(n1=group_size, n2=group_size)
    @settings(max_examples=120, deadline=None)
    def test_property_worst_case_still_rebuildable(self, n1, n2):
        plan = generate_transfer_plan(n1, n2)
        f1, f2 = faulty_bound(n1), faulty_bound(n2)
        # Adversary choice maximizing loss: distinct senders/receivers.
        faulty_senders = set(range(f1))
        # Pick receivers whose chunks don't overlap the faulty senders'
        # when possible (the worst case the parity budget is sized for).
        lost_by_senders = {
            a.chunk for a in plan.assignments if a.sender in faulty_senders
        }
        receivers_by_damage = sorted(
            range(n2),
            key=lambda r: len(
                {a.chunk for a in plan.by_receiver[r]} - lost_by_senders
            ),
            reverse=True,
        )
        faulty_receivers = set(receivers_by_damage[:f2])
        surviving = surviving_chunks(plan, faulty_senders, faulty_receivers)
        assert len(surviving) >= plan.n_data

    @given(n1=group_size, n2=group_size)
    @settings(max_examples=120, deadline=None)
    def test_property_structure_invariants(self, n1, n2):
        plan = generate_transfer_plan(n1, n2)
        assert plan.n_total == math.lcm(n1, n2)
        assert plan.nc1 * n1 == plan.n_total
        assert plan.nc2 * n2 == plan.n_total
        assert plan.n_data + plan.n_parity == plan.n_total
        assert plan.n_data >= 1
        # Algorithm 1's receiver rule: j = floor(c / nc2).
        for a in plan.assignments:
            assert a.receiver == a.chunk // plan.nc2
            assert a.sender == a.chunk // plan.nc1

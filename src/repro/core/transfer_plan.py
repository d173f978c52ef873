"""Algorithm 1: transfer-plan generation for encoded bijective replication.

For a sender group of size ``n1`` and a receiver group of size ``n2``:

* ``n_total = lcm(n1, n2)`` chunks are produced per entry;
* each sender transmits ``nc1 = n_total/n1`` chunks, each receiver
  receives ``nc2 = n_total/n2`` chunks — every chunk crosses the WAN
  exactly once;
* ``n_parity = nc1*f1 + nc2*f2`` chunks may be lost in the worst case
  (f1 faulty senders each dropping its nc1 chunks, f2 faulty receivers
  each discarding its nc2 chunks, disjointly), so that many parity chunks
  are encoded and the remaining ``n_data`` suffice to rebuild.

The paper's case study (Fig 5b): n1=4, n2=7 gives n_total=28, nc1=7,
nc2=4, f1=1, f2=2, n_parity=15, n_data=13 — a traffic amplification of
28/13 ~= 2.15 entry copies versus 4 for full-copy bijective sending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple


@dataclass(frozen=True)
class TransferAssignment:
    """One tuple <chunk c, sender node i, receiver node j> of the plan."""

    chunk: int
    sender: int
    receiver: int


@dataclass(frozen=True)
class TransferPlan:
    """The complete plan for one (sender group, receiver group) pair.

    Node ids are group-local indices (0-based), matching Algorithm 1.
    """

    n1: int
    n2: int
    n_total: int
    n_data: int
    n_parity: int
    nc1: int
    nc2: int
    assignments: Tuple[TransferAssignment, ...]
    #: ``assignments`` split per sender / receiver index, built with the
    #: plan: senders look their share up for every entry.
    by_sender: Tuple[Tuple[TransferAssignment, ...], ...] = field(init=False)
    by_receiver: Tuple[Tuple[TransferAssignment, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        plan = self.assignments
        sent = tuple(tuple(a for a in plan if a.sender == i) for i in range(self.n1))
        received = tuple(
            tuple(a for a in plan if a.receiver == j) for j in range(self.n2)
        )
        object.__setattr__(self, "by_sender", sent)
        object.__setattr__(self, "by_receiver", received)

    @property
    def overhead(self) -> float:
        """WAN amplification factor: entry copies transmitted."""
        return self.n_total / self.n_data

    def chunks_sent_by(self, sender: int) -> Tuple[TransferAssignment, ...]:
        """The assignments where group-1 node ``sender`` transmits."""
        if not 0 <= sender < self.n1:
            raise IndexError(f"sender id {sender} out of range [0, {self.n1})")
        return self.by_sender[sender]


def faulty_bound(n: int) -> int:
    """Byzantine nodes tolerated in a group of ``n``: floor((n-1)/3)."""
    if n < 1:
        raise ValueError(f"group size must be >= 1, got {n}")
    return (n - 1) // 3


def generate_transfer_plan(n1: int, n2: int) -> TransferPlan:
    """Algorithm 1, computed for the whole group pair.

    The per-node views of the paper's pseudocode (a sender's tuples, a
    receiver's tuples) are :meth:`TransferPlan.chunks_sent_by` and
    ``TransferPlan.by_receiver``; generating the full plan once
    and slicing keeps the two views consistent by construction.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"group sizes must be >= 1, got {n1} and {n2}")
    n_total = math.lcm(n1, n2)
    nc1 = n_total // n1
    nc2 = n_total // n2
    f1 = faulty_bound(n1)
    f2 = faulty_bound(n2)
    n_parity = nc1 * f1 + nc2 * f2
    n_data = n_total - n_parity
    if n_data < 1:
        raise ValueError(
            f"infeasible plan for sizes ({n1}, {n2}): "
            f"{n_parity} parity chunks leave no data chunks"
        )

    assignments = []
    for sender in range(n1):
        for chunk in range(nc1 * sender, nc1 * (sender + 1)):
            receiver = chunk // nc2
            assignments.append(
                TransferAssignment(chunk=chunk, sender=sender, receiver=receiver)
            )
    return TransferPlan(
        n1=n1,
        n2=n2,
        n_total=n_total,
        n_data=n_data,
        n_parity=n_parity,
        nc1=nc1,
        nc2=nc2,
        assignments=tuple(assignments),
    )

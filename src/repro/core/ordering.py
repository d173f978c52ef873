"""Entry ordering: Algorithm 2 (asynchronous, by VTS) and the round-based
synchronous orderer used by the baselines.

Both orderers are pure, I/O-free state machines: events go in
(timestamp assignments, entry arrivals), a deterministic execution
sequence comes out through the ``on_execute`` callback. This is what makes
the agreement property directly property-testable — any interleaving of
the same event set must produce the same execution prefix.

Sequence numbers start at 1 (matching the paper's examples); group clocks
start at 0 and ``clk_i`` advances to ``n`` when ``e_{i,n}`` completes
consensus, so ``e_{i,n}.vts[i] = n`` deterministically (Section V-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.core.entry import EntryId
from repro.core.vts import VectorTimestamp

ExecuteCallback = Callable[[EntryId], None]


@dataclass
class _EntryState:
    """Ordering-relevant state of one entry (payload lives elsewhere)."""

    gid: int
    seq: int
    vts: VectorTimestamp
    available: bool = False  # payload locally present and verified
    executed: bool = False

    @property
    def entry_id(self) -> EntryId:
        return EntryId(self.gid, self.seq)


class DeterministicOrderer:
    """Algorithm 2: deterministic ordering by vector timestamp.

    One instance runs on every node. Feed it:

    * :meth:`on_timestamp` whenever a timestamp assignment
      ``e_{gid,seq}.vts[assigner] = ts`` is learned (replicated via the
      assigner group's Raft instance);
    * :meth:`mark_available` when the entry's payload has been locally
      rebuilt and certificate-verified.

    Entries execute through ``on_execute`` exactly when Algorithm 2's
    ``GlobalMinimum`` identifies them, with the extra (implicit in the
    paper) condition that a node can only execute entries it holds.
    """

    def __init__(
        self, n_groups: int, on_execute: ExecuteCallback, strict: bool = True
    ) -> None:
        """``strict`` controls conflicting re-assignments: True raises
        (unit/property tests want the invariant enforced), False keeps
        the first value — the tolerant behaviour a deployment needs when
        a takeover leader re-assigns on behalf of a crashed group whose
        own last assignments raced the crash."""
        if n_groups < 1:
            raise ValueError("need at least one group")
        self.n_groups = n_groups
        self.on_execute = on_execute
        self.strict = strict
        self.conflicting_assignments = 0
        self.states: Dict[EntryId, _EntryState] = {}
        self.executed_count = 0
        # heads[i]: the unexecuted entry from G_i with the smallest seq.
        self.heads: List[_EntryState] = [
            self._state(gid, 1) for gid in range(n_groups)
        ]

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    def _state(self, gid: int, seq: int) -> _EntryState:
        """Get-or-create ordering state (the paper's GetEntry)."""
        entry_id = EntryId(gid, seq)
        state = self.states.get(entry_id)
        if state is None:
            vts = VectorTimestamp(self.n_groups)
            # e_{i,n}.vts[i] = n is deterministic (Section V-B).
            vts.assign(gid, seq)
            state = _EntryState(gid=gid, seq=seq, vts=vts)
            self.states[entry_id] = state
        return state

    # ------------------------------------------------------------------
    # Event inputs
    # ------------------------------------------------------------------

    def mark_available(self, gid: int, seq: int) -> None:
        """The entry's payload is locally present (rebuilt + verified)."""
        self._state(gid, seq).available = True
        self._drain()

    def on_timestamp(self, assigner: int, gid: int, seq: int, timestamp: int) -> None:
        """Algorithm 2 OnReceiving: learn ``e_{gid,seq}.vts[assigner]``."""
        if not 0 <= assigner < self.n_groups:
            raise IndexError(f"assigner group {assigner} out of range")
        state = self._state(gid, seq)
        try:
            state.vts.assign(assigner, timestamp)
        except ValueError:
            if self.strict:
                raise
            self.conflicting_assignments += 1
            return
        # Timestamps from G_assigner arrive in non-decreasing order, so
        # every head whose element is still unset gains this lower bound
        # (lines 6-7).
        for head in self.heads:
            head.vts.infer(assigner, timestamp)
        self._drain()

    # ------------------------------------------------------------------
    # Algorithm 2 core
    # ------------------------------------------------------------------

    @staticmethod
    def _prec(e1: _EntryState, e2: _EntryState) -> bool:
        """The paper's Prec: True iff e1 *must* precede e2.

        Conservative under incomplete information: returns False whenever
        an inferred element could still flip the comparison.
        """
        v1, v2 = e1.vts, e2.vts
        for j in range(v1.n_groups):
            if v1.is_set[j]:
                if v1.values[j] < v2.values[j]:
                    # e2's element can only grow; e1 surely precedes.
                    return True
                if v2.is_set[j] and v1.values[j] == v2.values[j]:
                    continue
            return False
        # Identical, fully-set VTSs: break ties by (seq, gid).
        if e1.seq != e2.seq:
            return e1.seq < e2.seq
        return e1.gid < e2.gid

    def _global_minimum(self) -> Optional[_EntryState]:
        """The head that provably precedes every other head, if any."""
        for candidate in self.heads:
            if all(
                other is candidate or self._prec(candidate, other)
                for other in self.heads
            ):
                return candidate
        return None

    def _drain(self) -> None:
        while True:
            pre = self._global_minimum()
            if pre is None or not pre.available:
                return
            pre.executed = True
            self.executed_count += 1
            self.on_execute(pre.entry_id)
            # Executed entries are never consulted again; free their state
            # (late timestamps simply recreate a throwaway record).
            self.states.pop(pre.entry_id, None)
            # Replace the head with its successor (lines 10-15).
            nxt = self._state(pre.gid, pre.seq + 1)
            self.heads[pre.gid] = nxt
            for j in range(self.n_groups):
                nxt.vts.infer(j, pre.vts.values[j])


class RoundBasedOrderer:
    """Synchronous round-based ordering (Section II-A).

    Every group proposes exactly one entry per round; a node executes
    round ``r`` once it holds the round-``r`` entry of every active group,
    in group-id order. This is the ordering used by Baseline, GeoBFT, ISS
    (per epoch slot), BR and EBR — and the reason a slow group throttles
    the fast ones (Fig 2, Fig 12).
    """

    def __init__(self, n_groups: int, on_execute: ExecuteCallback) -> None:
        if n_groups < 1:
            raise ValueError("need at least one group")
        self.n_groups = n_groups
        self.on_execute = on_execute
        self.active: Set[int] = set(range(n_groups))
        self.delivered: Dict[int, Set[int]] = {g: set() for g in range(n_groups)}
        self.current_round = 1
        self.executed_count = 0

    def deliver(self, gid: int, seq: int) -> None:
        """Entry ``e_{gid,seq}`` is locally committed (round = seq)."""
        if seq < 1:
            raise ValueError("sequence numbers start at 1")
        self.delivered[gid].add(seq)
        self._drain()

    def _drain(self) -> None:
        while self.active and all(
            self.current_round in self.delivered[g] for g in self.active
        ):
            for gid in sorted(self.active):
                self.executed_count += 1
                self.on_execute(EntryId(gid, self.current_round))
                self.delivered[gid].discard(self.current_round)
            self.current_round += 1

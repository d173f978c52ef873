"""Aria-style deterministic batch execution (Lu et al., VLDB 2020).

The paper executes ordered entries with Aria deterministic concurrency
control so execution never becomes the consensus bottleneck and all
replicas converge without coordination. The algorithm per batch:

1. *Execute phase*: every transaction reads from the batch-start snapshot
   and buffers its writes (no transaction sees another's writes).
2. *Reservation*: each key written is reserved by the lowest-index writer.
3. *Commit phase*: transaction ``T_j`` aborts on WAW (it writes a key
   reserved by an earlier transaction) or RAW (it read a key an earlier
   transaction wrote — its snapshot read was stale). Survivors' writes
   apply atomically.

Aborted transactions carry over to the head of the next batch —
deterministically, so every replica re-executes the same schedule. This
is what produces the paper's TPC-C observation (Fig 8d): bigger MassBFT
batches hit the Payment hotspot more often and the abort rate rises.

Steps 2-3 are one function of the batch's key sets, :func:`aria_aborts`.
In *modeled* mode (no execution logic) the write sets are the declared
ones, so the whole outcome is a pure function of the batch: it is
computed once as the batch's cached :class:`ConflictPlan` and every
observer's pipeline merely applies it. With logic registered the write
sets come from running the logic against this replica's store, so each
executor decides for itself: reads, read and write sets, aborts and the
writes applied are per store. What a batch derives from its own rows
alone is shared: YCSB builds each row's storage key and new column value
once, and every store holds those same immutable strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.ledger.state import KVStore
from repro.ledger.transactions import FRESH, RETRIED, Transaction, TxBatch

#: Full-execution logic: fn(store, txn) -> write map {key: value}.
#: Registered per transaction ``kind`` by the owning workload.
TxLogic = Callable[[KVStore, Transaction], Dict[str, Any]]


def aria_aborts(read_sets: Sequence[Sequence], write_sets: Sequence) -> List[int]:
    """Batch indices Aria aborts, ascending.

    ``write_sets[i]`` iterates the keys transaction ``i`` writes (a key
    tuple, or its buffered write map). Each written key is reserved by
    its lowest-index writer — the first one met in batch order. A
    transaction then aborts on WAW (it writes a key reserved earlier) or
    RAW (it read a key an earlier transaction wrote).

    Blind writers (empty read set) never abort: their values cannot
    depend on stale reads, so committing all of them in index order
    (later overwrites earlier) is serializable — Aria's reordering
    optimisation for write-only transactions. This is what keeps Zipf-hot
    blind updates (YCSB) from starving in the retry queue.
    """
    reservations: Dict[Any, int] = {}
    reserve = reservations.setdefault
    for index, keys in enumerate(write_sets):
        for key in keys:
            reserve(key, index)
    aborted: List[int] = []
    if not reservations:
        return aborted
    holder_of = reservations.get
    abort = aborted.append
    for index, read_keys in enumerate(read_sets):
        if not read_keys:
            continue
        for key in write_sets[index]:  # WAW
            if reservations[key] < index:
                abort(index)
                break
        else:
            for key in read_keys:  # RAW
                holder = holder_of(key)
                if holder is not None and holder < index:
                    abort(index)
                    break
    return aborted


def _split(column: Optional[Sequence], aborted: Sequence[int]) -> Tuple[tuple, tuple]:
    """``column`` as (survivors' values, aborted values), batch order."""
    if column is None:
        return (), ()
    if not aborted:
        return tuple(column), ()
    gone = set(aborted)
    kept = [value for index, value in enumerate(column) if index not in gone]
    return tuple(kept), tuple([column[index] for index in aborted])


class ConflictPlan:
    """Aria's decision for one batch, by batch index.

    ``aborted`` lists the aborted indices; ``commit_times`` /
    ``commit_tenants`` are the survivors' due times and tenants in batch
    order, ``carry_times`` / ``carry_tenants`` those of the aborted
    transactions, which commit at the head of the next entry. ``writes``
    is the survivors' write map (later index wins). A modeled-mode plan
    also holds ``carry_writes``, the aborted transactions' markers as
    the sequential lane writes them one entry later.
    """

    __slots__ = (
        "aborted",
        "commit_times",
        "commit_tenants",
        "carry_times",
        "carry_tenants",
        "writes",
        "carry_writes",
    )

    def __init__(
        self,
        batch: TxBatch,
        aborted: Sequence[int],
        writes: Dict[str, Any],
        carry_writes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.aborted = aborted
        self.commit_times, self.carry_times = _split(batch.due, aborted)
        self.commit_tenants, self.carry_tenants = _split(batch.tenants, aborted)
        self.writes = writes
        self.carry_writes = carry_writes


def conflict_plan(batch: TxBatch) -> ConflictPlan:
    """The modeled-mode plan of ``batch``, computed on first use.

    With no logic every write set is the declared one with
    ``("v", tx_id, retries)`` markers, so nothing here depends on a
    store: one plan serves every observer that executes the batch.
    """
    plan = batch.plan
    if plan is not None:
        return plan
    read_sets, write_sets = batch.key_sets()
    aborted = aria_aborts(read_sets, write_sets)
    gone = set(aborted)
    ids = batch.tx_ids()
    name = batch.key_name
    writes: Dict[str, Any] = {}
    carry_writes: Dict[str, Any] = {}
    for index, keys in enumerate(write_sets):
        if not keys:
            continue
        if index in gone:
            target, marker = carry_writes, ("v", ids[index], RETRIED)
        else:
            target, marker = writes, ("v", ids[index], FRESH)
        for key in keys:
            target[key if name is None else name(key)] = marker
    plan = batch.plan = ConflictPlan(batch, aborted, writes, carry_writes)
    return plan


@dataclass
class BatchResult:
    """Outcome of executing one batch."""

    committed: List[Transaction] = field(default_factory=list)
    aborted: List[Transaction] = field(default_factory=list)

    @property
    def attempts(self) -> int:
        return len(self.committed) + len(self.aborted)

    @property
    def abort_rate(self) -> float:
        if not self.attempts:
            return 0.0
        return len(self.aborted) / self.attempts


class AriaExecutor:
    """Deterministic batch executor over a :class:`KVStore`.

    ``logic`` maps transaction kinds to full-execution functions; kinds
    without logic run in *modeled* mode, where the declared write set is
    installed with placeholder version markers — conflict detection (the
    behaviour the benchmarks depend on) is identical in both modes.

    The executor never writes to a ``Transaction``: every observer's
    executor is handed the same objects.
    """

    def __init__(
        self,
        store: Optional[KVStore] = None,
        logic: Optional[Dict[str, TxLogic]] = None,
    ) -> None:
        # Explicit None check: an *empty* KVStore is falsy (len == 0), so
        # ``store or KVStore()`` would silently discard a caller's store.
        self.store = store if store is not None else KVStore()
        self.logic: Dict[str, TxLogic] = dict(logic or {})
        self.total_committed = 0
        self.total_aborted = 0

    def register_logic(self, kind: str, fn: TxLogic) -> None:
        self.logic[kind] = fn

    def execute_batch(self, batch: Sequence[Transaction]) -> BatchResult:
        """Run one Aria batch; applies surviving writes to the store."""
        if not isinstance(batch, TxBatch):
            batch = TxBatch(batch)
        committed, aborted = _split(batch.transactions, self.run(batch).aborted)
        return BatchResult(list(committed), list(aborted))

    def run(self, batch: TxBatch) -> ConflictPlan:
        """Execute ``batch`` as one Aria batch and say what it decided."""
        if self.logic:
            plan = self._run_logic(batch)
        else:
            plan = conflict_plan(batch)
        if not batch:
            return plan
        self.store.apply_writes(plan.writes)
        self.total_committed += len(batch) - len(plan.aborted)
        self.total_aborted += len(plan.aborted)
        return plan

    def run_carried(self, batch: TxBatch, plan: ConflictPlan) -> None:
        """Commit, through Aria's sequential fallback lane, what ``plan``
        aborted: in order, every one unconditionally (sequential
        execution has no conflicts), so replicas stay identical and a
        hotspot cannot build a retry storm. With logic the lane runs it
        again, one transaction at a time, each seeing its predecessors'
        writes."""
        store = self.store
        if plan.carry_writes is None:
            for index in plan.aborted:
                _, (writes,) = batch.execute(store, self.logic, (index,), RETRIED)
                store.apply_writes(writes)
        else:
            store.apply_writes(plan.carry_writes)
        self.total_committed += len(plan.aborted)

    def _run_logic(self, batch: TxBatch) -> ConflictPlan:
        """Execute phase with logic: every transaction reads the
        batch-start snapshot and buffers its writes (kinds without logic
        buffer version markers); the plan's ``writes`` are the survivors'.
        The outcome depends on this replica's store, so it is never
        cached on the batch, and it has no ``carry_writes``: the
        sequential lane has to run the logic again."""
        read_sets, buffered = batch.execute(self.store, self.logic)
        aborted = aria_aborts(read_sets, buffered)
        gone = set(aborted)
        final_writes: Dict[str, Any] = {}
        for index, writes in enumerate(buffered):
            if writes and index not in gone:
                final_writes.update(writes)
        return ConflictPlan(batch, aborted, final_writes)


class EntryResult(NamedTuple):
    """What executing one ordered entry committed and aborted: the due
    times (and tenants) of the committed transactions — the previous
    entry's aborts first, then this entry's survivors — and how many of
    this entry's transactions aborted."""

    commit_times: Tuple[float, ...]
    commit_tenants: Tuple[int, ...]
    aborted: int


class ExecutionPipeline:
    """Entry-by-entry execution with deterministic abort carryover.

    Every replica feeds ordered entries' batches through an identical
    pipeline: ``batch_k = aborted(batch_{k-1}) + txns(entry_k)``.
    Because the orderer output and the executor are both deterministic,
    replicas never diverge. Which transactions are waiting for a retry is
    this pipeline's own state; the shared batch is never written to.
    """

    def __init__(self, executor: Optional[AriaExecutor] = None) -> None:
        self.executor = executor or AriaExecutor()
        #: The last entry's (batch, plan) while it has aborts to retry.
        self._carried: Optional[Tuple[TxBatch, ConflictPlan]] = None
        self.entries_executed = 0

    @property
    def store(self) -> KVStore:
        return self.executor.store

    @property
    def carryover(self) -> List[Transaction]:
        """The transactions that aborted in the last entry (each exactly
        once) and commit at the head of the next."""
        if self._carried is None:
            return []
        batch, plan = self._carried
        txns = batch.transactions
        return [txns[index] for index in plan.aborted]

    def execute_entry(self, batch: Sequence[Transaction]) -> EntryResult:
        """Execute one ordered entry's batch (plus carried aborts).

        Carryover (transactions that aborted in the previous batch) runs
        first through the sequential fallback lane — they commit
        unconditionally and deterministically — then the fresh
        transactions run as a normal Aria batch. This is Aria's
        contention fallback; without it, a hot key receiving more than
        one write per batch accumulates an unbounded retry backlog.
        """
        if not isinstance(batch, TxBatch):
            batch = TxBatch(batch)
        executor = self.executor
        times: Tuple[float, ...] = ()
        tenants: Tuple[int, ...] = ()
        if self._carried is not None:
            carried_batch, carried = self._carried
            executor.run_carried(carried_batch, carried)
            times, tenants = carried.carry_times, carried.carry_tenants
        plan = executor.run(batch)
        self._carried = (batch, plan) if plan.aborted else None
        self.entries_executed += 1
        return EntryResult(
            times + plan.commit_times,
            tenants + plan.commit_tenants,
            len(plan.aborted),
        )

    @property
    def abort_rate(self) -> float:
        total = self.executor.total_committed + self.executor.total_aborted
        if not total:
            return 0.0
        return self.executor.total_aborted / total

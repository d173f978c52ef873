"""A plain per-transaction Aria executor: the reference the batch/plan
code in :mod:`repro.ledger.execution` is compared against.

One ``Transaction`` at a time, no caching and no sharing — the algorithm
as the module docstring of ``execution.py`` states it, with the retry
count kept here in the pipeline. :class:`ReferencePipeline` is modeled
mode (declared write sets, ``("v", tx_id, retries)`` markers);
:class:`FullReferencePipeline` runs per-transaction logic against a
``KVStore``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.ledger.state import KVStore
from repro.ledger.transactions import Transaction


class ReferencePipeline:
    def __init__(self) -> None:
        self.store: Dict[str, Any] = {}
        self.carryover: List[Transaction] = []
        self.total_committed = 0
        self.total_aborted = 0

    def execute_entry(
        self, transactions: Sequence[Transaction]
    ) -> Tuple[List[Transaction], List[Transaction]]:
        """Returns (committed in commit order, aborted)."""
        # Sequential lane: last entry's aborts, each retried exactly once.
        committed = list(self.carryover)
        for tx in self.carryover:
            for key in tx.write_keys:
                self.store[key] = ("v", tx.tx_id, 1)

        reservations: Dict[str, int] = {}
        for index, tx in enumerate(transactions):
            for key in tx.write_keys:
                reservations.setdefault(key, index)

        aborted: List[Transaction] = []
        writes: Dict[str, Any] = {}
        for index, tx in enumerate(transactions):
            waw = bool(tx.read_keys) and any(
                reservations[key] < index for key in tx.write_keys
            )
            raw = any(reservations.get(key, index) < index for key in tx.read_keys)
            if waw or raw:
                aborted.append(tx)
                continue
            for key in tx.write_keys:
                writes[key] = ("v", tx.tx_id, 0)
            committed.append(tx)
        self.store.update(writes)

        self.carryover = aborted
        self.total_committed += len(committed)
        self.total_aborted += len(aborted)
        return committed, aborted


class FullReferencePipeline:
    """Full execution: every transaction's logic ``fn(store, tx)`` runs
    against the batch-start store and buffers its writes; WAW/RAW are
    judged on the buffered write maps; last entry's aborts first re-run
    one by one, each applied before the next."""

    def __init__(self, logic: Dict[str, Callable], store: KVStore) -> None:
        self.logic = logic
        self.store = store
        self.carryover: List[Transaction] = []

    def execute_entry(
        self, transactions: Sequence[Transaction]
    ) -> Tuple[List[Transaction], List[int]]:
        """Returns (committed in commit order, aborted batch indices)."""
        store = self.store
        committed = list(self.carryover)
        for tx in self.carryover:
            store.apply_writes(self.logic[tx.kind](store, tx))

        buffered = [self.logic[tx.kind](store, tx) for tx in transactions]
        reservations: Dict[str, int] = {}
        for index, writes in enumerate(buffered):
            for key in writes:
                reservations.setdefault(key, index)

        aborted: List[int] = []
        final: Dict[str, Any] = {}
        for index, tx in enumerate(transactions):
            waw = bool(tx.read_keys) and any(
                reservations[key] < index for key in buffered[index]
            )
            raw = any(reservations.get(key, index) < index for key in tx.read_keys)
            if waw or raw:
                aborted.append(index)
                continue
            final.update(buffered[index])
            committed.append(tx)
        if transactions:
            store.apply_writes(final)

        self.carryover = [transactions[index] for index in aborted]
        return committed, aborted

"""Ledger substrate: transactions, state, deterministic execution, blocks.

The paper's prototype executes transactions with Aria deterministic
concurrency control over in-memory hash tables and assembles per-group
subchains into one globally ordered ledger (Section VI, Implementation).
This package provides all of that:

* :mod:`repro.ledger.transactions` — the transaction model (read/write
  sets, parameters, wire size) and the batch that carries transactions,
  as objects or as columns, from client load to execution;
* :mod:`repro.ledger.state` — the in-memory versioned key-value store;
* :mod:`repro.ledger.execution` — Aria-style batch execution with
  deterministic WAW/RAW conflict detection, abort-retry carryover and
  the per-batch conflict plan observers share in modeled mode;
* :mod:`repro.ledger.block` / :mod:`repro.ledger.ledger` — blocks,
  subchains, and the globally ordered ledger.
"""

from repro.ledger.block import Block, Subchain
from repro.ledger.execution import AriaExecutor, BatchResult, ExecutionPipeline
from repro.ledger.ledger import GlobalLedger
from repro.ledger.state import KVStore
from repro.ledger.transactions import Transaction, TxBatch

__all__ = [
    "AriaExecutor",
    "BatchResult",
    "Block",
    "ExecutionPipeline",
    "GlobalLedger",
    "KVStore",
    "Subchain",
    "Transaction",
    "TxBatch",
]

"""Workload interface.

A workload knows how to (a) generate client transactions and (b)
execute each transaction kind against a
:class:`repro.ledger.state.KVStore` (registered into the Aria executor).
Generation is deterministic given the RNG stream. No workload loads an
initial database: a store starts empty, and a row no transaction has
written reads as the workload's deterministic initial value.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Dict, List

from repro.ledger.execution import AriaExecutor, TxLogic
from repro.ledger.transactions import Transaction, TxBatch


class Workload(abc.ABC):
    """Base class for benchmark workloads."""

    #: Short identifier used in reports ("ycsb-a", "tpcc", ...).
    name: str = "workload"

    @abc.abstractmethod
    def generate(self, rng: random.Random, now: float = 0.0) -> Transaction:
        """Produce one client transaction stamped with submission time."""

    @abc.abstractmethod
    def logic(self) -> Dict[str, TxLogic]:
        """Execution functions per transaction kind (for full execution)."""

    def generator_for(
        self, rng: random.Random
    ) -> Callable[[float], Transaction]:
        """A bound single-argument generator: ``gen(now) -> Transaction``."""
        def gen(now: float) -> Transaction:
            return self.generate(rng, now=now)

        return gen

    def batch_generator_for(
        self, rng: random.Random
    ) -> Callable[[List[float]], TxBatch]:
        """A bound batch generator: ``gen(due_times) -> TxBatch``, one
        transaction per due time.

        The client load calls it once per batch. The default wraps
        :meth:`generate`'s transactions; a workload may override it to
        return columns instead of objects, and then MUST draw from
        ``rng`` in exactly the order ``generate`` does, or seeded runs
        change.
        """
        def gen(due: List[float]) -> TxBatch:
            return TxBatch([self.generate(rng, now=now) for now in due])

        return gen

    def register(self, executor: AriaExecutor) -> None:
        """Attach this workload's execution logic to an executor."""
        for kind, fn in self.logic().items():
            executor.register_logic(kind, fn)

    def average_tx_size(self, rng: random.Random, samples: int = 500) -> float:
        """Empirical mean wire size of generated transactions."""
        total = 0
        for _ in range(samples):
            total += self.generate(rng).size_bytes
        return total / samples

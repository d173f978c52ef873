"""SmallBank banking workload (Cahill et al., TODS 2009).

Paper parameters: 1,000,000 accounts, uniform access, average transaction
size 108 B. The classic six-procedure mix over per-account savings and
checking balances.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Tuple

from repro.ledger.execution import TxLogic
from repro.ledger.state import KVStore, table_key
from repro.ledger.transactions import Transaction
from repro.workloads.base import Workload

SAVINGS = "savings"
CHECKING = "checking"

INITIAL_SAVINGS = 10_000
INITIAL_CHECKING = 5_000

#: Calibrates the mean wire size to the paper's 108 B.
PAYLOAD = 28

#: (kind, weight) — the standard SmallBank mix.
MIX: Tuple[Tuple[str, float], ...] = (
    ("sb_balance", 0.15),
    ("sb_deposit_checking", 0.15),
    ("sb_transact_savings", 0.15),
    ("sb_amalgamate", 0.15),
    ("sb_write_check", 0.15),
    ("sb_send_payment", 0.25),
)


class SmallBankWorkload(Workload):
    """Uniform-access bank transfers over ``n_accounts`` accounts."""

    name = "smallbank"

    def __init__(self, n_accounts: int = 1_000_000) -> None:
        self.n_accounts = n_accounts

    def _pick_kind(self, rng: random.Random) -> str:
        roll = rng.random()
        cumulative = 0.0
        for kind, weight in MIX:
            cumulative += weight
            if roll < cumulative:
                return kind
        return MIX[-1][0]

    def generate(self, rng: random.Random, now: float = 0.0) -> Transaction:
        kind = self._pick_kind(rng)
        a = rng.randrange(self.n_accounts)
        amount = rng.randrange(1, 100)
        if kind == "sb_balance":
            return Transaction(
                kind=kind,
                read_keys=(table_key(SAVINGS, a), table_key(CHECKING, a)),
                write_keys=(),
                params={"a": a},
                payload_bytes=PAYLOAD,
                created_at=now,
            )
        if kind == "sb_deposit_checking":
            return Transaction(
                kind=kind,
                read_keys=(table_key(CHECKING, a),),
                write_keys=(table_key(CHECKING, a),),
                params={"a": a, "amount": amount},
                payload_bytes=PAYLOAD,
                created_at=now,
            )
        if kind == "sb_transact_savings":
            return Transaction(
                kind=kind,
                read_keys=(table_key(SAVINGS, a),),
                write_keys=(table_key(SAVINGS, a),),
                params={"a": a, "amount": amount},
                payload_bytes=PAYLOAD,
                created_at=now,
            )
        if kind == "sb_amalgamate":
            b = (a + 1 + rng.randrange(self.n_accounts - 1)) % self.n_accounts
            return Transaction(
                kind=kind,
                read_keys=(
                    table_key(SAVINGS, a),
                    table_key(CHECKING, a),
                    table_key(CHECKING, b),
                ),
                write_keys=(
                    table_key(SAVINGS, a),
                    table_key(CHECKING, a),
                    table_key(CHECKING, b),
                ),
                params={"a": a, "b": b},
                payload_bytes=PAYLOAD,
                created_at=now,
            )
        if kind == "sb_write_check":
            return Transaction(
                kind=kind,
                read_keys=(table_key(SAVINGS, a), table_key(CHECKING, a)),
                write_keys=(table_key(CHECKING, a),),
                params={"a": a, "amount": amount},
                payload_bytes=PAYLOAD,
                created_at=now,
            )
        # sb_send_payment
        b = (a + 1 + rng.randrange(self.n_accounts - 1)) % self.n_accounts
        return Transaction(
            kind="sb_send_payment",
            read_keys=(table_key(CHECKING, a), table_key(CHECKING, b)),
            write_keys=(table_key(CHECKING, a), table_key(CHECKING, b)),
            params={"a": a, "b": b, "amount": amount},
            payload_bytes=PAYLOAD,
            created_at=now,
        )

    def logic(self) -> Dict[str, TxLogic]:
        def checking(store: KVStore, account: int) -> int:
            return store.read_row(CHECKING, account, INITIAL_CHECKING)

        def savings(store: KVStore, account: int) -> int:
            return store.read_row(SAVINGS, account, INITIAL_SAVINGS)

        def balance(store: KVStore, tx: Transaction) -> Dict[str, Any]:
            savings(store, tx.params["a"])
            checking(store, tx.params["a"])
            return {}

        def deposit_checking(store: KVStore, tx: Transaction) -> Dict[str, Any]:
            a = tx.params["a"]
            return {table_key(CHECKING, a): checking(store, a) + tx.params["amount"]}

        def transact_savings(store: KVStore, tx: Transaction) -> Dict[str, Any]:
            a = tx.params["a"]
            return {table_key(SAVINGS, a): savings(store, a) + tx.params["amount"]}

        def amalgamate(store: KVStore, tx: Transaction) -> Dict[str, Any]:
            a, b = tx.params["a"], tx.params["b"]
            moved = savings(store, a) + checking(store, a)
            return {
                table_key(SAVINGS, a): 0,
                table_key(CHECKING, a): 0,
                table_key(CHECKING, b): checking(store, b) + moved,
            }

        def write_check(store: KVStore, tx: Transaction) -> Dict[str, Any]:
            a = tx.params["a"]
            total = savings(store, a) + checking(store, a)
            fee = 1 if total < tx.params["amount"] else 0
            return {
                table_key(CHECKING, a): checking(store, a)
                - tx.params["amount"]
                - fee
            }

        def send_payment(store: KVStore, tx: Transaction) -> Dict[str, Any]:
            a, b = tx.params["a"], tx.params["b"]
            amount = tx.params["amount"]
            return {
                table_key(CHECKING, a): checking(store, a) - amount,
                table_key(CHECKING, b): checking(store, b) + amount,
            }

        return {
            "sb_balance": balance,
            "sb_deposit_checking": deposit_checking,
            "sb_transact_savings": transact_savings,
            "sb_amalgamate": amalgamate,
            "sb_write_check": write_check,
            "sb_send_payment": send_payment,
        }

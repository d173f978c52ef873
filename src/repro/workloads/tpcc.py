"""TPC-C order-processing workload (the paper's subset).

Section VI: "a subset of the TPC-C workload that comprises 50% NewOrder
and 50% Payment transactions", 128 warehouses, average transaction size
232 B. Payment updates the warehouse YTD — the hotspot responsible for
MassBFT's elevated abort rate under big batches (Fig 8d); NewOrder
increments the district next-order-id (a second, milder hotspot).
"""

from __future__ import annotations

import random
from typing import Any, Dict

from repro.ledger.execution import TxLogic
from repro.ledger.state import KVStore, table_key
from repro.ledger.transactions import Transaction
from repro.workloads.base import Workload

WAREHOUSE = "warehouse"
DISTRICT = "district"
CUSTOMER = "customer"
STOCK = "stock"
ORDER = "order"

DISTRICTS_PER_WAREHOUSE = 10
CUSTOMERS_PER_DISTRICT = 3000
N_ITEMS = 100_000

#: The initial warehouse and district rows. A row no transaction has
#: written reads as these; transactions copy before they update.
INITIAL_WAREHOUSE = {"w_ytd": 0.0, "w_tax": 0.1}
INITIAL_DISTRICT = {"next_o_id": 1, "d_ytd": 0.0, "d_tax": 0.05}

#: Payload sizes calibrated so the 50/50 mix averages the paper's 232 B.
PAYMENT_PAYLOAD = 60
NEWORDER_PAYLOAD = 244


def district_key(w: int, d: int) -> str:
    return table_key(DISTRICT, f"{w}:{d}")


def customer_key(w: int, d: int, c: int) -> str:
    return table_key(CUSTOMER, f"{w}:{d}:{c}")


def stock_key(w: int, i: int) -> str:
    return table_key(STOCK, f"{w}:{i}")


class TpccWorkload(Workload):
    """50% NewOrder + 50% Payment over ``n_warehouses`` warehouses."""

    name = "tpcc"

    def __init__(self, n_warehouses: int = 128) -> None:
        if n_warehouses < 1:
            raise ValueError("need at least one warehouse")
        self.n_warehouses = n_warehouses

    def generate(self, rng: random.Random, now: float = 0.0) -> Transaction:
        w = rng.randrange(self.n_warehouses)
        d = rng.randrange(DISTRICTS_PER_WAREHOUSE)
        c = rng.randrange(CUSTOMERS_PER_DISTRICT)
        if rng.random() < 0.5:
            # Payment: customer pays; warehouse/district YTD are hotspots.
            amount = round(rng.uniform(1.0, 5000.0), 2)
            return Transaction(
                kind="tpcc_payment",
                read_keys=(
                    table_key(WAREHOUSE, w),
                    district_key(w, d),
                    customer_key(w, d, c),
                ),
                write_keys=(
                    table_key(WAREHOUSE, w),
                    district_key(w, d),
                    customer_key(w, d, c),
                ),
                params={"w": w, "d": d, "c": c, "amount": amount},
                payload_bytes=PAYMENT_PAYLOAD,
                created_at=now,
            )
        # NewOrder: 5-15 order lines over random items.
        n_lines = rng.randrange(5, 16)
        items = sorted({rng.randrange(N_ITEMS) for _ in range(n_lines)})
        quantities = {i: rng.randrange(1, 11) for i in items}
        reads = [district_key(w, d)] + [stock_key(w, i) for i in items]
        writes = [district_key(w, d)] + [stock_key(w, i) for i in items]
        return Transaction(
            kind="tpcc_neworder",
            read_keys=tuple(reads),
            write_keys=tuple(writes),
            params={"w": w, "d": d, "c": c, "items": quantities},
            payload_bytes=NEWORDER_PAYLOAD,
            created_at=now,
        )

    def logic(self) -> Dict[str, TxLogic]:
        def payment(store: KVStore, tx: Transaction) -> Dict[str, Any]:
            w, d, c = tx.params["w"], tx.params["d"], tx.params["c"]
            amount = tx.params["amount"]
            warehouse = dict(store.read_row(WAREHOUSE, w, INITIAL_WAREHOUSE))
            district = dict(store.get(district_key(w, d), INITIAL_DISTRICT))
            customer = dict(
                store.get(customer_key(w, d, c), {"balance": 0.0, "payments": 0})
            )
            warehouse["w_ytd"] += amount
            district["d_ytd"] += amount
            customer["balance"] = customer.get("balance", 0.0) - amount
            customer["payments"] = customer.get("payments", 0) + 1
            return {
                table_key(WAREHOUSE, w): warehouse,
                district_key(w, d): district,
                customer_key(w, d, c): customer,
            }

        def neworder(store: KVStore, tx: Transaction) -> Dict[str, Any]:
            w, d = tx.params["w"], tx.params["d"]
            district = dict(store.get(district_key(w, d), INITIAL_DISTRICT))
            order_id = district["next_o_id"]
            district["next_o_id"] = order_id + 1
            writes: Dict[str, Any] = {district_key(w, d): district}
            for item, quantity in tx.params["items"].items():
                stock = dict(store.get(stock_key(w, item), {"quantity": 100}))
                level = stock.get("quantity", 100) - quantity
                stock["quantity"] = level + 91 if level < 10 else level
                writes[stock_key(w, item)] = stock
            writes[table_key(ORDER, f"{w}:{d}:{order_id}")] = {
                "customer": tx.params["c"],
                "lines": tx.params["items"],
            }
            return writes

        return {"tpcc_payment": payment, "tpcc_neworder": neworder}

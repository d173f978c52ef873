"""The eager initial tables: the reference the lazy stores are compared
against.

An observer's store starts empty, and a key no transaction has written
reads as its workload's deterministic initial value. Before that, setup
loaded every observer's store with the initial tables. :func:`populate`
puts them back: the three loaders below are those ``populate`` bodies
verbatim, writing through :class:`_Loader`, which sets the store's table
directly as the store's loading writes (``put`` / ``put_row``) did, so
no write counter moves. :func:`materialized` overlays a lazy store on
the initial tables, :func:`initial_value` says what a lazy read of a key
returns, and :func:`assert_lazy_matches_eager` is the containment
check: every key a lazy store holds has the eager store's value, every
key only the eager store holds has its initial value, and both stores
counted the same writes.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.ledger.state import KVStore, table_key
from repro.workloads.smallbank import (
    CHECKING,
    INITIAL_CHECKING,
    INITIAL_SAVINGS,
    SAVINGS,
    SmallBankWorkload,
)
from repro.workloads.tpcc import (
    DISTRICT,
    DISTRICTS_PER_WAREHOUSE,
    INITIAL_DISTRICT,
    INITIAL_WAREHOUSE,
    WAREHOUSE,
    TpccWorkload,
    district_key,
)
from repro.workloads.ycsb import TABLE, N_COLUMNS, YcsbWorkload, initial_column

#: The rows (YCSB) and accounts (SmallBank) the eager path loaded.
MATERIALIZE_LIMIT = 10_000


class _Loader:
    """A store's table, written directly: no write or batch counted."""

    def __init__(self, store: KVStore) -> None:
        self._data = store._data

    def put(self, key: str, value: Any) -> None:
        self._data[key] = value

    def put_row(self, table: str, key: Any, value: Any) -> None:
        self._data[table_key(table, key)] = value


def initial_row(key: int) -> Dict[str, str]:
    """The deterministic initial contents of YCSB row ``key``."""
    return {f"field{c}": initial_column(key, c) for c in range(N_COLUMNS)}


def _populate_ycsb(self: YcsbWorkload, store) -> None:
    for key in range(min(self.n_rows, MATERIALIZE_LIMIT)):
        row = initial_row(key)
        for column in range(N_COLUMNS):
            store.put(self.column_key(key, column), row[f"field{column}"])


def _populate_smallbank(self: SmallBankWorkload, store) -> None:
    for account in range(min(self.n_accounts, MATERIALIZE_LIMIT)):
        store.put_row(SAVINGS, account, INITIAL_SAVINGS)
        store.put_row(CHECKING, account, INITIAL_CHECKING)


def _populate_tpcc(self: TpccWorkload, store) -> None:
    for w in range(self.n_warehouses):
        store.put_row(WAREHOUSE, w, {"w_ytd": 0.0, "w_tax": 0.1})
        for d in range(DISTRICTS_PER_WAREHOUSE):
            store.put(
                district_key(w, d),
                {"next_o_id": 1, "d_ytd": 0.0, "d_tax": 0.05},
            )


def populate(workload, store: KVStore) -> None:
    """Load ``workload``'s initial tables into ``store`` as setup did."""
    if isinstance(workload, YcsbWorkload):
        loader = _populate_ycsb
    elif isinstance(workload, SmallBankWorkload):
        loader = _populate_smallbank
    elif isinstance(workload, TpccWorkload):
        loader = _populate_tpcc
    else:
        raise TypeError(f"no eager tables for {type(workload).__name__}")
    loader(workload, _Loader(store))


def materialized(workload, lazy: KVStore) -> KVStore:
    """The store the eager path would hold: ``workload``'s initial
    tables with ``lazy``'s rows and write counters on top."""
    store = KVStore()
    populate(workload, store)
    store._data.update(lazy._data)
    store.writes_applied = lazy.writes_applied
    store.batches_applied = lazy.batches_applied
    return store


def initial_value(key: str) -> Any:
    """What a read of ``key`` returns from a store that never held it."""
    table, _, row = key.partition("/")
    if table == TABLE:
        index, _, field = row.partition("#field")
        return initial_column(int(index), int(field))
    if table == SAVINGS:
        return INITIAL_SAVINGS
    if table == CHECKING:
        return INITIAL_CHECKING
    if table == WAREHOUSE:
        return INITIAL_WAREHOUSE
    if table == DISTRICT:
        return INITIAL_DISTRICT
    raise KeyError(f"{key!r} has no initial value")


def assert_lazy_matches_eager(lazy: KVStore, eager: KVStore) -> None:
    """``lazy`` holds what ``eager`` holds wherever it holds anything,
    and ``eager`` holds initial values everywhere else."""
    assert lazy.writes_applied == eager.writes_applied
    assert lazy.batches_applied == eager.batches_applied
    for key, value in lazy._data.items():
        assert key in eager and eager.get(key) == value, key
    for key, value in eager._data.items():
        if key not in lazy:
            assert value == initial_value(key), key

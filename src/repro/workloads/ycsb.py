"""YCSB key-value workload (Cooper et al., SoCC 2010).

Paper parameters (Section VI): a single table with 10 columns of 100
bytes, 1,000,000 rows, Zipf(0.99)-distributed access; YCSB-A is 50% read
/ 50% update, YCSB-B is 95% read / 5% update. Average transaction wire
sizes land on the paper's 201 B (A) and 150 B (B).

The table is never loaded: a store holds only the columns that
transactions wrote, and a read of any other column regenerates its
deterministic initial contents (:func:`initial_column`), so the 1 GB
table never has to exist in memory.
"""

from __future__ import annotations

import random
from array import array
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.ledger.execution import TxLogic
from repro.ledger.state import KVStore, table_key
from repro.ledger.transactions import (
    FRESH,
    TX_ENVELOPE_SIZE,
    Transaction,
    TxBatch,
    reserve_tx_ids,
)
from repro.workloads.base import Workload
from repro.workloads.zipf import ZipfGenerator

TABLE = "usertable"
N_COLUMNS = 10
COLUMN_BYTES = 100

#: Payload sizes calibrated to the paper's reported averages:
#: 0.5*R + 0.5*U + envelope = 201 B (YCSB-A) and
#: 0.95*R + 0.05*U + envelope = 150 B (YCSB-B).
READ_PAYLOAD = 64
UPDATE_PAYLOAD = 178

#: An update's new column value is ``upd:<n>`` for ``n`` in this range;
#: in a batch's ``values`` column ``READ`` marks a read instead.
VALUE_RANGE = 1 << 30
READ = -1


def initial_column(key: int, column: int) -> str:
    """The deterministic initial contents of one column of row ``key``."""
    return f"init:{key}:{column}".ljust(COLUMN_BYTES, "x")


def _storage_key(code: int) -> str:
    """Key code (``key * N_COLUMNS + column``) to column storage key
    (the string :meth:`YcsbWorkload.column_key` builds)."""
    return f"{TABLE}/{code // N_COLUMNS}#field{code % N_COLUMNS}"


def _new_column(value: int) -> str:
    """The column contents an update with ``values`` entry ``value`` writes."""
    return f"upd:{value}".ljust(COLUMN_BYTES, "y")


def _transaction(
    now: float, code: int, value: int, tx_id: int, tenant: int = 0
) -> Transaction:
    """The ``Transaction`` for one row of YCSB columns: key code and
    update value (or ``READ``)."""
    key, column = divmod(code, N_COLUMNS)
    keys = (_storage_key(code),)
    params: Dict[str, Any] = {"key": key, "column": column}
    if value == READ:
        return Transaction(
            "ycsb_read", keys, (), params, READ_PAYLOAD, now, tx_id, tenant
        )
    params["value"] = _new_column(value)
    return Transaction(
        "ycsb_update", (), keys, params, UPDATE_PAYLOAD, now, tx_id, tenant
    )


def _read_column(store: KVStore, name: str, key: int, column: int) -> str:
    """What a read of storage key ``name`` returns: the stored column,
    or, for a column no transaction wrote, its initial contents."""
    value = store.get(name)
    if value is None:
        value = initial_column(key, column)
    return value


def _read(store: KVStore, tx: Transaction) -> Dict[str, Any]:
    """Stock per-transaction logic of ``ycsb_read``."""
    _read_column(store, tx.read_keys[0], tx.params["key"], tx.params["column"])
    return {}


def _update(store: KVStore, tx: Transaction) -> Dict[str, Any]:
    """Stock per-transaction logic of ``ycsb_update``."""
    return {tx.write_keys[0]: tx.params["value"]}


def _joined_ids(head: Sequence[int], tail: Sequence[int]) -> Sequence[int]:
    """The tx-id column of ``head``'s rows followed by ``tail``'s: still
    a ``range`` when the two are adjacent ranges, packed otherwise."""
    if not len(tail):
        return head
    if not len(head):
        return tail
    if isinstance(head, range) and isinstance(tail, range):
        if head.stop == tail.start:
            return range(head.start, tail.stop)
    return array("q", head) + array("q", tail)


class YcsbBatch(TxBatch):
    """A YCSB batch as parallel columns: ``due``, key ``codes``, update
    ``values`` (``READ`` marks a read), tx ``ids`` and, under a tenant
    mix, ``tenants``. Conflict detection runs on the integer codes,
    payload bytes and full execution come straight from the columns, and
    so do the row operations an admission queue needs; ``Transaction``
    objects exist only once asked for. ``codes`` and ``values`` are
    packed arrays — they stay with the entry for the whole run — and
    ``ids`` is the reserved ``range`` the generator got for as long as
    the rows are one, a packed array once non-adjacent ranges were
    joined or rows were gathered.

    The first :meth:`execute` builds each row's storage key and the
    column contents its update writes (``None`` for a read) and keeps
    them on the batch, so every observer's store holds these same string
    objects rather than a copy of its own; they go with the batch when
    its entry is released."""

    __slots__ = ("codes", "values", "ids", "_names", "_columns")

    def __init__(
        self,
        due: List[float],
        codes: array,
        values: array,
        ids: Sequence[int],
        tenants: Optional[List[int]] = None,
    ) -> None:
        self.due = due
        self._tenants = tenants
        self.plan = None
        self._txns = None
        self.codes = codes
        self.values = values
        self.ids = ids
        self._names: Optional[List[str]] = None
        self._columns: Optional[List[Optional[str]]] = None

    def _build(self) -> Iterator[Transaction]:
        columns = [self.due, self.codes, self.values, self.ids]
        if self._tenants is not None:
            columns.append(self._tenants)
        return map(_transaction, *columns)

    def extend(self, other: "YcsbBatch") -> None:
        self._txns = self._names = self._columns = None
        self.due += other.due
        self.codes += other.codes
        self.values += other.values
        self.ids = _joined_ids(self.ids, other.ids)
        if self._tenants is not None:
            self._tenants += other.tenants

    def split_front(self, n: int) -> "YcsbBatch":
        due, codes, values, ids = self.due, self.codes, self.values, self.ids
        tenants = self._tenants
        front = YcsbBatch(
            due[:n],
            codes[:n],
            values[:n],
            ids[:n],
            None if tenants is None else tenants[:n],
        )
        self._txns = self._names = self._columns = None
        self.due, self.codes, self.values, self.ids = (
            due[n:], codes[n:], values[n:], ids[n:]
        )
        if tenants is not None:
            self._tenants = tenants[n:]
        return front

    def gather(self, indices: Sequence[int]) -> "YcsbBatch":
        due, codes, values, ids = self.due, self.codes, self.values, self.ids
        tenants = self._tenants
        return YcsbBatch(
            [due[index] for index in indices],
            array("q", [codes[index] for index in indices]),
            array("q", [values[index] for index in indices]),
            array("q", [ids[index] for index in indices]),
            None if tenants is None else [tenants[index] for index in indices],
        )

    @property
    def size_bytes(self) -> int:
        reads = self.values.count(READ)
        updates = len(self.values) - reads
        return (
            len(self.values) * TX_ENVELOPE_SIZE
            + reads * READ_PAYLOAD
            + updates * UPDATE_PAYLOAD
        )

    def tx_ids(self) -> Sequence[int]:
        return self.ids

    def key_sets(self):
        rows = list(zip(self.codes, self.values))
        return (
            [(code,) if value == READ else () for code, value in rows],
            [() if value == READ else (code,) for code, value in rows],
        )

    key_name = staticmethod(_storage_key)

    def serialize(self) -> bytes:
        # ``Transaction.serialize`` of every row, without the objects:
        # kind|id|read keys|write keys|sorted params, NUL-padded to the
        # wire size, each behind its 4-byte length.
        read_size = TX_ENVELOPE_SIZE + READ_PAYLOAD
        update_size = TX_ENVELOPE_SIZE + UPDATE_PAYLOAD
        out = bytearray()
        for code, value, tx_id in zip(self.codes, self.values, self.ids):
            key, column = divmod(code, N_COLUMNS)
            if value == READ:
                body = (
                    f"ycsb_read|{tx_id}|{TABLE}/{key}#field{column}|"
                    f"|column={column};key={key}"
                ).encode().ljust(read_size, b"\x00")
            else:
                body = (
                    f"ycsb_update|{tx_id}||{TABLE}/{key}#field{column}"
                    f"|column={column};key={key};value={_new_column(value)}"
                ).encode().ljust(update_size, b"\x00")
            out += len(body).to_bytes(4, "big")
            out += body
        return bytes(out)

    def execute(self, store, logic, only=None, retries=FRESH):
        # The stock logic, from the columns; any other registered logic
        # wants ``Transaction`` objects and gets the per-transaction path.
        stock = logic.get("ycsb_read") is _read and logic.get("ycsb_update") is _update
        if not stock:
            return super().execute(store, logic, only, retries)
        names, columns = self._names, self._columns
        if names is None:
            names = self._names = list(map(_storage_key, self.codes))
            columns = self._columns = [
                None if value == READ else _new_column(value) for value in self.values
            ]
        codes = self.codes
        if only is None:
            rows = zip(names, columns, codes)
        else:
            rows = [(names[index], columns[index], codes[index]) for index in only]
        read_sets: List[tuple] = []
        buffered: List[Dict[str, Any]] = []
        add_reads = read_sets.append
        buffer_writes = buffered.append
        for name, new, code in rows:
            if new is None:
                _read_column(store, name, *divmod(code, N_COLUMNS))
                add_reads((name,))
                buffer_writes({})
            else:
                add_reads(())
                buffer_writes({name: new})
        return read_sets, buffered


class YcsbWorkload(Workload):
    """YCSB with a configurable read fraction (A = 0.5, B = 0.95)."""

    def __init__(
        self,
        read_fraction: float = 0.5,
        n_rows: int = 1_000_000,
        theta: float = 0.99,
        hotspot=None,
    ) -> None:
        """``hotspot`` is an optional drift schedule (duck-typed: any
        object with ``offset_at(now) -> int``, e.g.
        :class:`repro.traffic.hotspot.HotspotDrift`). It rotates the
        scrambled-Zipf ranking by a time-dependent row offset so the hot
        keyset moves during the run. Purely a post-scramble remap — no
        extra rng draws — so cadence-identical to the undrifted
        workload."""
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(f"read fraction {read_fraction} outside [0, 1]")
        self.read_fraction = read_fraction
        self.n_rows = n_rows
        self.theta = theta
        self.hotspot = hotspot
        self.name = "ycsb-a" if read_fraction <= 0.5 else "ycsb-b"
        self._zipf: Dict[int, ZipfGenerator] = {}

    def _sampler(self, rng: random.Random) -> ZipfGenerator:
        key = id(rng)
        sampler = self._zipf.get(key)
        if sampler is None:
            sampler = ZipfGenerator(self.n_rows, self.theta, rng)
            self._zipf[key] = sampler
        return sampler

    def batch_generator_for(self, rng: random.Random):
        """``gen(due_times) -> YcsbBatch`` with the whole draw pipeline
        pre-bound: one call per batch, no object per transaction.

        The RNG contract: per transaction, in order — zipf ``u``, column,
        read/update coin, update value — the exact word stream
        :meth:`generate` consumes. The scrambled-zipfian sampler is
        inlined (same float expressions in the same order as
        :meth:`ZipfGenerator.sample` / ``sample_scrambled``), and so is
        ``Random.randrange(n)``: ``getrandbits(n.bit_length())`` redrawn
        while ``>= n``. Hot-keyset drift is a time-pure offset added
        after the scramble, so it changes which rows are hot and never
        the stream.
        """
        sampler = self._sampler(rng)
        random_draw = rng.random
        getrandbits = rng.getrandbits
        n_rows = self.n_rows
        zetan = sampler.zetan
        eta = sampler.eta
        alpha = sampler.alpha
        rank1_bound = 1.0 + 0.5 ** sampler.theta
        read_fraction = self.read_fraction
        offset_at = self.hotspot.offset_at if self.hotspot is not None else None
        column_bits = N_COLUMNS.bit_length()
        value_bits = VALUE_RANGE.bit_length()

        def gen(due: List[float]) -> YcsbBatch:
            codes: List[int] = []
            values: List[int] = []
            add_code = codes.append
            add_value = values.append
            offset = 0
            for now in due:
                u = random_draw()
                uz = u * zetan
                if uz < 1.0:
                    rank = 0
                elif uz < rank1_bound:
                    rank = 1
                else:
                    rank = int(n_rows * (eta * u - eta + 1.0) ** alpha)
                if offset_at is not None:
                    offset = offset_at(now)
                key = (rank * 0x9E3779B97F4A7C15 + 0x7F4A7C15 + offset) % n_rows
                column = getrandbits(column_bits)
                while column >= N_COLUMNS:
                    column = getrandbits(column_bits)
                add_code(key * N_COLUMNS + column)
                if random_draw() < read_fraction:
                    add_value(READ)
                else:
                    value = getrandbits(value_bits)
                    while value >= VALUE_RANGE:
                        value = getrandbits(value_bits)
                    add_value(value)
            first_id = reserve_tx_ids(len(due))
            return YcsbBatch(
                due,
                array("q", codes),
                array("q", values),
                range(first_id, first_id + len(due)),
            )

        return gen

    @staticmethod
    def column_key(key: int, column: int) -> str:
        """Column-granular storage key.

        YCSB updates touch one column and carry the full new value: they
        are *blind writes*, and column-level keys let Aria commit
        concurrent updates to different columns (and, via the blind-write
        rule, even to the same column, last-writer-wins) without aborts.
        """
        return table_key(TABLE, f"{key}#field{column}")

    def generate(self, rng: random.Random, now: float = 0.0) -> Transaction:
        # The per-transaction reference for ``batch_generator_for``: the
        # RNG draw order — zipf sample, column, read/update coin, update
        # value — is fixed; reordering any of it would change seeded runs.
        key = self._sampler(rng).sample_scrambled(self.n_rows)
        if self.hotspot is not None:
            key = (key + self.hotspot.offset_at(now)) % self.n_rows
        column = rng.randrange(N_COLUMNS)
        value = READ
        if rng.random() >= self.read_fraction:
            value = rng.randrange(VALUE_RANGE)
        return _transaction(now, key * N_COLUMNS + column, value, reserve_tx_ids(1))

    def logic(self) -> Dict[str, TxLogic]:
        return {"ycsb_read": _read, "ycsb_update": _update}

"""YCSB key-value workload (Cooper et al., SoCC 2010).

Paper parameters (Section VI): a single table with 10 columns of 100
bytes, 1,000,000 rows, Zipf(0.99)-distributed access; YCSB-A is 50% read
/ 50% update, YCSB-B is 95% read / 5% update. Average transaction wire
sizes land on the paper's 201 B (A) and 150 B (B).

Population is lazy beyond ``materialize_limit`` rows: reads of
unmaterialized rows deterministically regenerate the initial row, so the
1 GB table never has to exist in memory while behaviour (including
conflict patterns) is unchanged.
"""

from __future__ import annotations

import random
from typing import Any, Dict

from repro.ledger.execution import TxLogic
from repro.ledger.state import KVStore, table_key
from repro.ledger.transactions import Transaction
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


def initial_column(key: int, column: int) -> str:
    """The deterministic initial contents of one column of row ``key``."""
    return f"init:{key}:{column}".ljust(COLUMN_BYTES, "x")


def initial_row(key: int) -> Dict[str, str]:
    """The deterministic initial contents of row ``key``."""
    return {f"field{c}": initial_column(key, c) for c in range(N_COLUMNS)}


class YcsbWorkload(Workload):
    """YCSB with a configurable read fraction (A = 0.5, B = 0.95)."""

    def __init__(
        self,
        read_fraction: float = 0.5,
        n_rows: int = 1_000_000,
        theta: float = 0.99,
        materialize_limit: int = 10_000,
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
        self.materialize_limit = materialize_limit
        self.hotspot = hotspot
        self.name = "ycsb-a" if read_fraction <= 0.5 else "ycsb-b"
        self._zipf: Dict[int, ZipfGenerator] = {}
        self._fast: Dict[int, tuple] = {}

    def _sampler(self, rng: random.Random) -> ZipfGenerator:
        key = id(rng)
        sampler = self._zipf.get(key)
        if sampler is None:
            sampler = ZipfGenerator(self.n_rows, self.theta, rng)
            self._zipf[key] = sampler
        return sampler

    def _fast_methods(self, rng: random.Random) -> tuple:
        """Per-stream bound methods for :meth:`generate`'s hot loop.

        ``Random.randrange(n)`` validates its arguments and then defers to
        ``Random._randbelow(n)``; calling ``_randbelow`` directly consumes
        the exact same ``getrandbits`` draws (identical value stream) at
        about half the cost. Falls back to ``randrange`` if a custom
        ``rng`` lacks the internal method.
        """
        key = id(rng)
        fast = self._fast.get(key)
        if fast is None:
            sampler = self._sampler(rng)
            randbelow = getattr(rng, "_randbelow", rng.randrange)
            fast = (sampler.sample_scrambled, rng.random, randbelow)
            self._fast[key] = fast
        return fast

    def generator_for(self, rng: random.Random):
        """Closure with the whole YCSB draw pipeline pre-bound.

        Inlines the scrambled-zipfian sampler (same float expressions in
        the same order as :meth:`ZipfGenerator.sample` /
        :meth:`~ZipfGenerator.sample_scrambled`) and the ``_randbelow``
        shortcut from :meth:`_fast_methods`, so one offered transaction
        costs one closure call. Draw order — zipf u, column, read/update
        coin, update value — matches :meth:`generate` exactly.
        """
        sampler = self._sampler(rng)
        random_draw = rng.random
        randbelow = getattr(rng, "_randbelow", rng.randrange)
        n_rows = self.n_rows
        zetan = sampler.zetan
        eta = sampler.eta
        alpha = sampler.alpha
        rank1_bound = 1.0 + 0.5 ** sampler.theta
        read_fraction = self.read_fraction
        hotspot = self.hotspot
        if hotspot is not None:
            return self._drifting_generator(rng, hotspot)

        def gen(now: float) -> Transaction:
            u = random_draw()
            uz = u * zetan
            if uz < 1.0:
                rank = 0
            elif uz < rank1_bound:
                rank = 1
            else:
                rank = int(n_rows * (eta * u - eta + 1.0) ** alpha)
            key = (rank * 0x9E3779B97F4A7C15 + 0x7F4A7C15) % n_rows
            column = randbelow(N_COLUMNS)
            storage_key = f"{TABLE}/{key}#field{column}"
            if random_draw() < read_fraction:
                return Transaction(
                    kind="ycsb_read",
                    read_keys=(storage_key,),
                    write_keys=(),
                    params={"key": key, "column": column},
                    payload_bytes=READ_PAYLOAD,
                    created_at=now,
                )
            return Transaction(
                kind="ycsb_update",
                read_keys=(),
                write_keys=(storage_key,),
                params={
                    "key": key,
                    "column": column,
                    "value": f"upd:{randbelow(1 << 30)}".ljust(COLUMN_BYTES, "y"),
                },
                payload_bytes=UPDATE_PAYLOAD,
                created_at=now,
            )

        return gen

    def _drifting_generator(self, rng: random.Random, hotspot):
        """The :meth:`generator_for` closure with hot-keyset drift.

        A separate closure so the undrifted hot path above stays
        untouched (and bit-identical). Draw order is unchanged — the
        drift offset is a pure function of simulated time applied after
        the scramble — so switching drift on/off changes *which* rows
        are hot, never the rng stream.
        """
        sampler = self._sampler(rng)
        random_draw = rng.random
        randbelow = getattr(rng, "_randbelow", rng.randrange)
        n_rows = self.n_rows
        zetan = sampler.zetan
        eta = sampler.eta
        alpha = sampler.alpha
        rank1_bound = 1.0 + 0.5 ** sampler.theta
        read_fraction = self.read_fraction
        offset_at = hotspot.offset_at

        def gen(now: float) -> Transaction:
            u = random_draw()
            uz = u * zetan
            if uz < 1.0:
                rank = 0
            elif uz < rank1_bound:
                rank = 1
            else:
                rank = int(n_rows * (eta * u - eta + 1.0) ** alpha)
            key = (rank * 0x9E3779B97F4A7C15 + 0x7F4A7C15 + offset_at(now)) % n_rows
            column = randbelow(N_COLUMNS)
            storage_key = f"{TABLE}/{key}#field{column}"
            if random_draw() < read_fraction:
                return Transaction(
                    kind="ycsb_read",
                    read_keys=(storage_key,),
                    write_keys=(),
                    params={"key": key, "column": column},
                    payload_bytes=READ_PAYLOAD,
                    created_at=now,
                )
            return Transaction(
                kind="ycsb_update",
                read_keys=(),
                write_keys=(storage_key,),
                params={
                    "key": key,
                    "column": column,
                    "value": f"upd:{randbelow(1 << 30)}".ljust(COLUMN_BYTES, "y"),
                },
                payload_bytes=UPDATE_PAYLOAD,
                created_at=now,
            )

        return gen

    def populate(self, store: KVStore) -> None:
        for key in range(min(self.n_rows, self.materialize_limit)):
            row = initial_row(key)
            for column in range(N_COLUMNS):
                store.put(self.column_key(key, column), row[f"field{column}"])

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
        # Saturating-load hot path: the composite key is built inline
        # (identical string to ``column_key``) and the RNG draw order —
        # zipf sample, column, read/update coin, update value — is fixed;
        # reordering any of it would change seeded runs.
        sample_scrambled, random_draw, randbelow = self._fast_methods(rng)
        key = sample_scrambled(self.n_rows)
        if self.hotspot is not None:
            key = (key + self.hotspot.offset_at(now)) % self.n_rows
        column = randbelow(N_COLUMNS)
        storage_key = f"{TABLE}/{key}#field{column}"
        if random_draw() < self.read_fraction:
            return Transaction(
                kind="ycsb_read",
                read_keys=(storage_key,),
                write_keys=(),
                params={"key": key, "column": column},
                payload_bytes=READ_PAYLOAD,
                created_at=now,
            )
        return Transaction(
            kind="ycsb_update",
            read_keys=(),
            write_keys=(storage_key,),
            params={
                "key": key,
                "column": column,
                "value": f"upd:{randbelow(1 << 30)}".ljust(COLUMN_BYTES, "y"),
            },
            payload_bytes=UPDATE_PAYLOAD,
            created_at=now,
        )

    def logic(self) -> Dict[str, TxLogic]:
        def read(store: KVStore, tx: Transaction) -> Dict[str, Any]:
            key, column = tx.params["key"], tx.params["column"]
            store.get(self.column_key(key, column), initial_column(key, column))
            return {}

        def update(store: KVStore, tx: Transaction) -> Dict[str, Any]:
            key, column = tx.params["key"], tx.params["column"]
            return {self.column_key(key, column): tx.params["value"]}

        return {"ycsb_read": read, "ycsb_update": update}

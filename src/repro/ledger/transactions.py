"""The transaction model.

A transaction declares its read and write sets up front (deterministic
databases such as Aria and Calvin require this) and carries a ``kind``
dispatched to the owning workload's logic for full execution. Wire size is
computed from the serialized form and is what batching/replication
accounts for; the per-workload averages land on the paper's reported
sizes (YCSB-A 201 B, YCSB-B 150 B, SmallBank 108 B, TPC-C 232 B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.crypto.signatures import SIGNATURE_SIZE

#: Envelope every client transaction carries: id, timestamps, client
#: signature (verified during local PBFT — the paper's dominant CPU cost).
TX_ENVELOPE_SIZE = 16 + SIGNATURE_SIZE

#: Retry count in the version marker a modeled write installs: a fresh
#: transaction has aborted zero times, and one in the sequential lane
#: exactly once (the lane commits unconditionally).
FRESH, RETRIED = 0, 1

_next_tx_id = 1


def reserve_tx_ids(count: int) -> int:
    """Reserve ``count`` consecutive transaction ids; returns the first.

    One process-wide sequence, so a batch's range is never handed out
    again — to another batch, another group or a lone ``Transaction``.
    """
    global _next_tx_id
    first = _next_tx_id
    _next_tx_id += count
    return first


@dataclass(slots=True)
class Transaction:
    """One client transaction flowing through consensus.

    ``read_keys``/``write_keys`` drive Aria conflict detection;
    ``params`` are the workload-specific arguments the execution logic
    consumes. ``created_at`` stamps client submission time (simulated
    seconds) for end-to-end latency measurement.

    The wire size is memoized (a pure function of the immutable identity
    fields that size accounting re-requests); the serialized form is not
    — an entry payload is built from it once, and a kept copy per
    transaction would sit in memory for the whole run. Executors never
    write to a transaction — every observer's pipeline shares the same
    objects — so retry state lives in the pipeline, not here.
    """

    kind: str
    read_keys: Tuple[str, ...]
    write_keys: Tuple[str, ...]
    params: Dict[str, Any] = field(default_factory=dict)
    payload_bytes: int = 0
    created_at: float = 0.0
    tx_id: int = field(default_factory=lambda: reserve_tx_ids(1))
    #: Tenant index under a multi-tenant traffic spec (0 otherwise): the
    #: owning batch's ``tenants`` column, copied here once the object
    #: exists; deliberately outside the serialized identity so wire
    #: bytes are unchanged.
    tenant: int = 0
    _size: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def size_bytes(self) -> int:
        """Serialized wire size."""
        size = self._size
        if size:
            return size
        if self.payload_bytes:
            size = TX_ENVELOPE_SIZE + self.payload_bytes
        else:
            key_bytes = sum(len(k) for k in self.read_keys + self.write_keys)
            param_bytes = sum(
                len(str(k)) + len(str(v)) for k, v in self.params.items()
            )
            size = TX_ENVELOPE_SIZE + len(self.kind) + key_bytes + param_bytes
        self._size = size
        return size

    def serialize(self) -> bytes:
        """Deterministic byte encoding (entry payloads are built from this)."""
        parts = [
            self.kind,
            str(self.tx_id),
            ",".join(self.read_keys),
            ",".join(self.write_keys),
            ";".join(f"{k}={v}" for k, v in sorted(self.params.items())),
        ]
        body = "|".join(parts).encode("utf-8")
        # Pad to the declared wire size so serialized entries have
        # realistic length (the envelope bytes stand in for the client
        # signature and framing).
        target = self.size_bytes
        if len(body) < target:
            body = body + b"\x00" * (target - len(body))
        return body

    def __repr__(self) -> str:
        return f"Tx#{self.tx_id}({self.kind})"


class TxBatch:
    """An ordered batch of client transactions: the unit that flows
    load -> entry -> ordering -> execution.

    Consumers read a batch through its columns — ``due`` (client
    submission times), ``tenants``, :meth:`tx_ids`, :meth:`key_sets`,
    ``size_bytes`` — and its two whole-batch operations,
    :meth:`serialize` and :meth:`execute`; they only ask for
    :attr:`transactions` when they need the objects (custom execution
    logic, tests). Until an entry forms around it a batch is also a
    FIFO of rows — :meth:`extend`, :meth:`split_front`, :meth:`gather`
    — which is how the client load queues, sheds and admits arrivals
    without looking inside them.

    This class wraps transactions that already exist and is the
    per-transaction reference for every operation. A workload that
    generates the columns directly subclasses it, leaves ``_txns`` as
    ``None`` and implements :meth:`_build` and the row operations, so
    its ``Transaction`` objects come into being on first use or never.

    ``plan`` caches the batch's modeled-mode conflict plan
    (:func:`repro.ledger.execution.conflict_plan`).
    """

    __slots__ = ("due", "plan", "_tenants", "_txns")

    #: Maps a :meth:`key_sets` key to the storage key it stands for;
    #: ``None`` when the keys already are storage keys.
    key_name = None

    def __init__(
        self,
        transactions: Iterable[Transaction] = (),
        tenants: Optional[List[int]] = None,
    ) -> None:
        """``tenants`` is the tenant column of a batch formed under a
        multi-tenant traffic spec; single-tenant batches carry none."""
        txns = self._txns = tuple(transactions)
        self.due: List[float] = [tx.created_at for tx in txns]
        self.tenants = tenants
        self.plan = None

    def __len__(self) -> int:
        return len(self.due)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    @property
    def tenants(self) -> Optional[List[int]]:
        """Tenant index per row, or ``None`` for a single-tenant batch.
        ``Transaction.tenant`` mirrors it on whatever objects exist."""
        return self._tenants

    @tenants.setter
    def tenants(self, column: Optional[List[int]]) -> None:
        self._tenants = column
        if column is not None and self._txns is not None:
            for tx, tenant in zip(self._txns, column):
                tx.tenant = tenant

    @property
    def transactions(self) -> Tuple[Transaction, ...]:
        """The batch as ``Transaction`` objects (built once, then kept)."""
        txns = self._txns
        if txns is None:
            txns = self._txns = tuple(self._build())
        return txns

    def _build(self) -> Iterable[Transaction]:
        """The rows as new objects, ``tenant`` set from the column."""
        raise NotImplementedError

    # -- row operations: the batch as a FIFO, before it is an entry ----

    def extend(self, other: "TxBatch") -> None:
        """Append ``other``'s rows. Either both batches carry a
        ``tenants`` column or neither does."""
        self._txns += other.transactions
        self.due += other.due
        if self._tenants is not None:
            self._tenants += other.tenants

    def split_front(self, n: int) -> "TxBatch":
        """Remove the first ``n`` rows (all of them when there are
        fewer) and return them as a new batch."""
        tenants = self._tenants
        front = TxBatch(self._txns[:n], None if tenants is None else tenants[:n])
        self._txns = self._txns[n:]
        self.due = self.due[n:]
        if tenants is not None:
            self._tenants = tenants[n:]
        return front

    def gather(self, indices: Sequence[int]) -> "TxBatch":
        """A new batch of the rows at ``indices``, in that order."""
        txns, tenants = self._txns, self._tenants
        return TxBatch(
            [txns[index] for index in indices],
            None if tenants is None else [tenants[index] for index in indices],
        )

    @property
    def size_bytes(self) -> int:
        """Sum of the transactions' wire sizes."""
        return sum(tx.size_bytes for tx in self._txns)

    def tx_ids(self) -> Sequence[int]:
        return [tx.tx_id for tx in self._txns]

    def key_sets(self) -> Tuple[Sequence[Sequence], Sequence[Sequence]]:
        """Parallel ``(read sets, write sets)`` columns for Aria's
        conflict rules; keys are whatever :attr:`key_name` accepts."""
        txns = self._txns
        return [tx.read_keys for tx in txns], [tx.write_keys for tx in txns]

    def serialize(self) -> bytes:
        """The entry payload these transactions travel as."""
        return serialize_batch(self.transactions)

    def execute(
        self,
        store: Any,
        logic: Mapping[str, Callable[..., Dict[str, Any]]],
        only: Optional[Sequence[int]] = None,
        retries: int = FRESH,
    ) -> Tuple[List[Sequence[str]], List[Dict[str, Any]]]:
        """Aria's execute phase: run every transaction (just those at
        batch indices ``only``, if given) against ``store`` as it stands
        and return parallel ``(read sets, buffered write maps)``, both
        in storage keys. A kind without logic buffers
        ``("v", tx_id, retries)`` markers for its declared write set.
        """
        txns = self.transactions
        if only is not None:
            txns = [txns[index] for index in only]
        buffered: List[Dict[str, Any]] = []
        buffer_writes = buffered.append
        for tx in txns:
            fn = logic.get(tx.kind)
            if fn is not None:
                buffer_writes(fn(store, tx))
            else:
                buffer_writes(
                    dict.fromkeys(tx.write_keys, ("v", tx.tx_id, retries))
                )
        return [tx.read_keys for tx in txns], buffered


def serialize_batch(transactions: Tuple[Transaction, ...]) -> bytes:
    """Concatenate length-prefixed transactions into an entry payload."""
    out = bytearray()
    for tx in transactions:
        body = tx.serialize()
        out += len(body).to_bytes(4, "big")
        out += body
    return bytes(out)

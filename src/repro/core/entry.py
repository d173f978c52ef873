"""Log entries.

An entry ``e_{i,m}`` is a batch of client transactions proposed by group
``G_i`` with local sequence number ``m`` (Section II-A). The payload is a
real byte string (serialized transactions) so erasure coding, Merkle
trees, digests and certificates all operate on genuine data; benchmarks
that run in size-only mode synthesize a compact payload but keep
``declared_size`` at the realistic wire size.
"""

from __future__ import annotations

from typing import Any, Collection, NamedTuple, Optional, Tuple

from repro.crypto.hashing import digest


class EntryId(NamedTuple):
    """Globally unique entry identifier: (proposing group, local sequence)."""

    gid: int
    seq: int

    def __repr__(self) -> str:
        return f"e{self.gid},{self.seq}"


class EntryReleased(RuntimeError):
    """An entry's batch or payload was read after :meth:`LogEntry.release`."""

    def __init__(self, entry_id: EntryId, released_at: float) -> None:
        super().__init__(
            f"entry {entry_id!r} released its batch and payload at "
            f"t={released_at:.6f} s, once every live observer had executed it"
        )
        self.entry_id = entry_id
        self.released_at = released_at


class LogEntry:
    """A batch of transactions certified and replicated as one unit.

    ``batch`` holds the transactions for execution (a
    :class:`repro.ledger.transactions.TxBatch`, which only builds
    transaction objects when :attr:`transactions` is asked for);
    ``payload`` holds their serialized bytes (what actually travels and is
    erasure-coded). ``declared_size`` lets simulations decouple the wire
    size from the (possibly compacted) in-memory payload.

    Once every live observer has executed the entry, :meth:`release`
    drops the batch (and the conflict plan cached on it) and the
    payload; ``tx_count``, ``payload_size``, ``size_bytes`` and
    ``digest`` stay readable.
    """

    __slots__ = (
        "gid",
        "seq",
        "created_at",
        "declared_size",
        "payload_size",
        "tx_count",
        "released_at",
        "_payload",
        "_batch",
        "_digest",
    )

    def __init__(
        self,
        gid: int,
        seq: int,
        payload: bytes,
        batch: Collection[Any] = (),
        created_at: float = 0.0,
        declared_size: Optional[int] = None,
    ) -> None:
        self.gid = gid
        self.seq = seq
        self.created_at = created_at
        self.declared_size = declared_size
        self.payload_size = len(payload)
        self.tx_count = len(batch)
        #: Simulated instant of :meth:`release`; ``None`` while the
        #: batch is held.
        self.released_at: Optional[float] = None
        self._payload = payload
        self._batch = batch
        self._digest: Optional[bytes] = None

    @property
    def entry_id(self) -> EntryId:
        return EntryId(self.gid, self.seq)

    @property
    def size_bytes(self) -> int:
        """Wire size of the entry body."""
        if self.declared_size is not None:
            return self.declared_size
        return self.payload_size

    @property
    def payload(self) -> bytes:
        if self.released_at is not None:
            raise EntryReleased(self.entry_id, self.released_at)
        return self._payload

    @property
    def batch(self) -> Collection[Any]:
        if self.released_at is not None:
            raise EntryReleased(self.entry_id, self.released_at)
        return self._batch

    @property
    def transactions(self) -> Tuple[Any, ...]:
        return tuple(self.batch)

    @property
    def digest(self) -> bytes:
        """Content digest binding gid/seq/payload (what PBFT certifies)."""
        value = self._digest
        if value is None:
            header = f"entry:{self.gid}:{self.seq}:".encode("utf-8")
            value = self._digest = digest(header + self._payload)
        return value

    def release(self, at: float) -> None:
        """Drop the batch and the payload at simulated instant ``at``
        (the digest binding the payload is cached first); reading
        :attr:`payload`, :attr:`batch` or :attr:`transactions`
        afterwards raises :class:`EntryReleased`."""
        self._digest = self.digest
        self._batch = self._payload = None
        self.released_at = at

    def __repr__(self) -> str:
        return (
            f"LogEntry({self.entry_id!r}, {self.tx_count} txns, "
            f"{self.size_bytes} B)"
        )

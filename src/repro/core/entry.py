"""Log entries.

An entry ``e_{i,m}`` is a batch of client transactions proposed by group
``G_i`` with local sequence number ``m`` (Section II-A). The payload is a
real byte string (serialized transactions) so erasure coding, Merkle
trees, digests and certificates all operate on genuine data; benchmarks
that run in size-only mode synthesize a compact payload but keep
``declared_size`` at the realistic wire size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Collection, NamedTuple, Optional, Tuple

from repro.crypto.hashing import digest


class EntryId(NamedTuple):
    """Globally unique entry identifier: (proposing group, local sequence)."""

    gid: int
    seq: int

    def __repr__(self) -> str:
        return f"e{self.gid},{self.seq}"


@dataclass
class LogEntry:
    """A batch of transactions certified and replicated as one unit.

    ``batch`` holds the transactions for execution (a
    :class:`repro.ledger.transactions.TxBatch`, which only builds
    transaction objects when :attr:`transactions` is asked for);
    ``payload`` holds their serialized bytes (what actually travels and is
    erasure-coded). ``declared_size`` lets simulations decouple the wire
    size from the (possibly compacted) in-memory payload.
    """

    gid: int
    seq: int
    payload: bytes
    batch: Collection[Any] = ()
    created_at: float = 0.0
    declared_size: Optional[int] = None

    @property
    def entry_id(self) -> EntryId:
        return EntryId(self.gid, self.seq)

    @property
    def size_bytes(self) -> int:
        """Wire size of the entry body."""
        if self.declared_size is not None:
            return self.declared_size
        return len(self.payload)

    @property
    def transactions(self) -> Tuple[Any, ...]:
        return tuple(self.batch)

    @property
    def tx_count(self) -> int:
        return len(self.batch)

    @cached_property
    def digest(self) -> bytes:
        """Content digest binding gid/seq/payload (what PBFT certifies)."""
        header = f"entry:{self.gid}:{self.seq}:".encode("utf-8")
        return digest(header + self.payload)

    def __repr__(self) -> str:
        return (
            f"LogEntry({self.entry_id!r}, {self.tx_count} txns, "
            f"{self.size_bytes} B)"
        )

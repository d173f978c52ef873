"""Protocol message definitions and wire-size accounting.

Every message class carries enough structure for the receiving state
machine *and* a ``size_bytes`` used by the network's bandwidth model. Sizes
follow the usual envelope arithmetic: a small fixed header plus digests
(32 B), signatures (64 B), and any embedded payload bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.crypto.hashing import DIGEST_SIZE
from repro.crypto.signatures import SIGNATURE_SIZE, Signature
from repro.sim.network import NodeAddress

#: Fixed per-message envelope overhead (headers, type tags, ids).
HEADER_SIZE = 32


def wire_size(obj: Any) -> int:
    """Best-effort wire size of a protocol object.

    Objects expose ``size_bytes``; raw bytes are counted directly; anything
    else costs a header (it is metadata-only in the simulation).
    """
    if obj is None:
        return 0
    size = getattr(obj, "size_bytes", None)
    if size is not None:
        return int(size)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    return HEADER_SIZE


# ----------------------------------------------------------------------
# PBFT messages (local, intra-group consensus)
# ----------------------------------------------------------------------


@dataclass
class PrePrepare:
    """Leader's proposal: carries the actual value."""

    view: int
    seq: int
    digest: bytes
    value: Any
    skip_prepare: bool = False

    @property
    def size_bytes(self) -> int:
        return HEADER_SIZE + DIGEST_SIZE + wire_size(self.value)


@dataclass
class Prepare:
    view: int
    seq: int
    digest: bytes
    sender: NodeAddress
    signature: Signature

    @property
    def size_bytes(self) -> int:
        return HEADER_SIZE + DIGEST_SIZE + SIGNATURE_SIZE


@dataclass
class Commit:
    view: int
    seq: int
    digest: bytes
    sender: NodeAddress
    signature: Signature

    @property
    def size_bytes(self) -> int:
        return HEADER_SIZE + DIGEST_SIZE + SIGNATURE_SIZE


@dataclass
class Checkpoint:
    seq: int
    state_digest: bytes
    sender: NodeAddress
    signature: Signature

    @property
    def size_bytes(self) -> int:
        return HEADER_SIZE + DIGEST_SIZE + SIGNATURE_SIZE


@dataclass
class ViewChange:
    """Vote to move to ``new_view``; carries prepared-entry evidence."""

    new_view: int
    last_stable_seq: int
    prepared: Tuple[Tuple[int, bytes], ...]  # (seq, digest) prepared proofs
    sender: NodeAddress
    signature: Signature

    @property
    def size_bytes(self) -> int:
        return (
            HEADER_SIZE
            + SIGNATURE_SIZE
            + len(self.prepared) * (8 + DIGEST_SIZE)
        )


@dataclass
class NewView:
    """New leader's announcement with the view-change quorum evidence."""

    new_view: int
    view_changes: Tuple[ViewChange, ...]
    reproposals: Tuple[PrePrepare, ...]

    @property
    def size_bytes(self) -> int:
        return (
            HEADER_SIZE
            + sum(vc.size_bytes for vc in self.view_changes)
            + sum(pp.size_bytes for pp in self.reproposals)
        )

"""Optimistic entry rebuild (Section IV-C).

Erasure decoding only succeeds when *all* input chunks are correct and
correctly indexed, so a receiver must not mix chunks from different
encodings. The optimistic approach:

* every chunk arrives with a Merkle proof binding it (and its chunk id)
  to a Merkle root computed over the sender's encoding;
* chunks are *bucketed by root* — chunks under one root are, up to hash
  collisions, consistent with a single encoding;
* once a bucket holds ``n_data`` chunks, the entry is rebuilt and checked
  against its certificate digest. On failure every chunk id seen in that
  bucket is blacklisted (the whole bucket is fake, since the chunks are
  mutually consistent), bounding the work a DoS adversary can induce;
* proofs that do not verify are rejected outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set

from repro.crypto.merkle import MerkleProof
from repro.erasure.reed_solomon import ReedSolomonCodec

#: Validates a rebuilt payload against the entry's certified digest.
PayloadValidator = Callable[[bytes], bool]


@dataclass
class RebuildResult:
    """Outcome of feeding one chunk to the rebuilder."""

    status: str  # "pending" | "rebuilt" | "rejected" | "duplicate" | "failed"
    payload: Optional[bytes] = None

    @property
    def ok(self) -> bool:
        return self.status == "rebuilt"


@dataclass
class _Bucket:
    chunks: Dict[int, bytes] = field(default_factory=dict)
    failed: bool = False


class OptimisticRebuilder:
    """Rebuilds one entry from erasure-coded chunks arriving in any order.

    One rebuilder exists per (entry id, receiving node). ``validator``
    checks a candidate payload against the PBFT-certified digest; only a
    validated payload is released.
    """

    def __init__(
        self,
        codec: ReedSolomonCodec,
        validator: PayloadValidator,
    ) -> None:
        self.codec = codec
        self.validator = validator
        self.buckets: Dict[bytes, _Bucket] = {}
        self.blacklisted_ids: Set[int] = set()
        self.payload: Optional[bytes] = None
        self.rebuild_attempts = 0

    @property
    def complete(self) -> bool:
        return self.payload is not None

    @property
    def missing(self) -> int:
        """Chunks the fullest bucket still lacks: no rebuild attempt can
        happen before that many more chunks have been added."""
        fullest = max((len(b.chunks) for b in self.buckets.values()), default=0)
        return self.codec.n_data - fullest

    def add_chunk(
        self,
        root: bytes,
        chunk_id: int,
        data: bytes,
        proof: Optional[MerkleProof] = None,
    ) -> RebuildResult:
        """Feed one received chunk; returns what happened.

        ``proof`` may be None for chunks received through local exchange
        from a node that already verified them — passing it is always
        safe and is required for WAN-received chunks.
        """
        if self.complete:
            return RebuildResult("duplicate", self.payload)
        if not 0 <= chunk_id < self.codec.n_total:
            return RebuildResult("rejected")
        if chunk_id in self.blacklisted_ids:
            return RebuildResult("rejected")
        if proof is not None:
            if proof.leaf_index != chunk_id or not proof.verify(data, root):
                return RebuildResult("rejected")

        bucket = self.buckets.setdefault(root, _Bucket())
        if bucket.failed:
            return RebuildResult("rejected")
        if chunk_id in bucket.chunks:
            return RebuildResult("duplicate")
        bucket.chunks[chunk_id] = data

        if len(bucket.chunks) < self.codec.n_data:
            return RebuildResult("pending")
        return self._try_rebuild(root, bucket)

    def _try_rebuild(self, root: bytes, bucket: _Bucket) -> RebuildResult:
        self.rebuild_attempts += 1
        try:
            candidate = self.codec.decode(dict(bucket.chunks))
        except ValueError:
            candidate = None
        if candidate is not None and self.validator(candidate):
            self.payload = candidate
            return RebuildResult("rebuilt", candidate)
        # Every chunk in this bucket shares the fake root: blacklist the
        # ids so the adversary cannot force repeated rebuild attempts.
        bucket.failed = True
        self.blacklisted_ids.update(bucket.chunks)
        bucket.chunks.clear()
        return RebuildResult("failed")

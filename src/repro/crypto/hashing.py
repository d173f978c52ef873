"""SHA-256 digest helpers.

The paper uses SHA-256 for data integrity (Section VI, Implementation).
All digests in this repository are real 32-byte SHA-256 outputs, so
integrity properties (tampered chunks land in different Merkle buckets,
certificates bind to exact entry contents) hold for real, not by fiat.
"""

from __future__ import annotations

import hashlib
from typing import Union

DIGEST_SIZE = 32

Hashable = Union[bytes, bytearray, memoryview, str]


def _as_bytes(data: Hashable) -> bytes:
    if isinstance(data, str):
        return data.encode("utf-8")
    return bytes(data)


def digest(data: Hashable) -> bytes:
    """SHA-256 of ``data`` (strings are UTF-8 encoded)."""
    return hashlib.sha256(_as_bytes(data)).digest()

"""Message <-> chunk conversion helpers.

Entries are arbitrary-length byte strings; the codec wants ``n_data``
equal-length chunks. We prepend an 8-byte big-endian length header and pad
with zeros, so the original message is recovered exactly regardless of its
length (including empty messages).
"""

from __future__ import annotations

from typing import List, Sequence

_LENGTH_HEADER = 8


def pad_to_chunks(message: bytes, n_data: int) -> List[bytes]:
    """Split ``message`` into exactly ``n_data`` equal-length chunks."""
    if n_data < 1:
        raise ValueError(f"n_data must be >= 1, got {n_data}")
    framed = len(message).to_bytes(_LENGTH_HEADER, "big") + message
    chunk_size = (len(framed) + n_data - 1) // n_data
    chunk_size = max(chunk_size, 1)
    padded = framed.ljust(chunk_size * n_data, b"\x00")
    return [padded[i * chunk_size : (i + 1) * chunk_size] for i in range(n_data)]


def join_chunks(chunks: Sequence[bytes]) -> bytes:
    """Inverse of :func:`pad_to_chunks`."""
    if not chunks:
        raise ValueError("no chunks to join")
    framed = b"".join(chunks)
    if len(framed) < _LENGTH_HEADER:
        raise ValueError("chunks too small to contain a length header")
    length = int.from_bytes(framed[:_LENGTH_HEADER], "big")
    if length > len(framed) - _LENGTH_HEADER:
        raise ValueError(
            f"declared length {length} exceeds available "
            f"{len(framed) - _LENGTH_HEADER} bytes (corrupt chunks?)"
        )
    return framed[_LENGTH_HEADER : _LENGTH_HEADER + length]

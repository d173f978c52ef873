"""Systematic Reed-Solomon codec over GF(2^8).

Construction (the one used by klauspost/reedsolomon, which the paper's
implementation employs): take the ``n_total x n_data`` Vandermonde matrix,
multiply by the inverse of its top ``n_data x n_data`` block. The result's
top block is the identity — so the first ``n_data`` output chunks *are*
the data chunks (systematic) — and any ``n_data`` rows remain invertible,
so any ``n_data`` chunks reconstruct the message.

The row arithmetic multiplies each row with one C-level
``bytes.translate`` lookup and XORs the products together — through
numpy when it is importable, as arbitrary-precision ints otherwise (see
:meth:`ReedSolomonCodec._combine_rows`). Inverted decode submatrices are
memoized per survivor set.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple

from repro.erasure.galois import GF256
from repro.erasure.matrix import Matrix

# The XOR accumulation rides numpy when present; REPRO_NO_NUMPY=1 forces
# the int-XOR fallback, as it forces the scalar NIC path in
# :mod:`repro.sim.network`.
try:
    if os.environ.get("REPRO_NO_NUMPY"):
        _np = None
    else:
        import numpy as _np
except ImportError:  # pragma: no cover - numpy is baked into the image
    _np = None

#: Inverted decode submatrices kept per codec, keyed by the tuple of
#: surviving chunk indices. A geo deployment sees only a handful of
#: distinct survivor sets per (n_data, n_parity) shape, so a small bound
#: suffices; LRU eviction keeps adversarial chunk-loss patterns from
#: growing the cache without bound.
_DECODE_CACHE_LIMIT = 128


class ReedSolomonCodec:
    """Encode/decode a message into ``n_data + n_parity`` chunks.

    >>> codec = ReedSolomonCodec(n_data=3, n_parity=2)
    >>> chunks = codec.encode_chunks([b"ab", b"cd", b"ef"])
    >>> codec.decode_chunks({0: chunks[0], 3: chunks[3], 4: chunks[4]})
    [b'ab', b'cd', b'ef']
    """

    def __init__(self, n_data: int, n_parity: int) -> None:
        if n_data < 1:
            raise ValueError(f"n_data must be >= 1, got {n_data}")
        if n_parity < 0:
            raise ValueError(f"n_parity must be >= 0, got {n_parity}")
        if n_data + n_parity > GF256.ORDER:
            raise ValueError(
                "GF(256) Reed-Solomon supports at most 256 total chunks, got "
                f"{n_data + n_parity}"
            )
        self.n_data = n_data
        self.n_parity = n_parity
        self.n_total = n_data + n_parity

        vandermonde = Matrix.vandermonde(self.n_total, n_data)
        top_inverse = vandermonde.select_rows(range(n_data)).invert()
        self.encode_matrix = vandermonde.multiply(top_inverse)
        self._decode_cache: "OrderedDict[Tuple[int, ...], Matrix]" = OrderedDict()

    # ------------------------------------------------------------------
    # Row arithmetic
    # ------------------------------------------------------------------

    @staticmethod
    def _combine_rows(
        coefficients: Sequence[int], rows: Sequence[bytes], length: int
    ) -> bytes:
        """Compute XOR_i mul(coefficients[i], rows[i]) over ``length`` bytes.

        Each row is multiplied with one C-level ``bytes.translate``, so no
        per-byte Python loop remains. The products are XOR-ed as one
        ``uint8`` matrix reduced along its row axis; without numpy they
        accumulate as arbitrary-precision ints, which costs a
        ``from_bytes`` per row and a ``to_bytes`` per result (about twice
        the time at entry-sized rows). XOR is exact, so both produce
        identical bytes.
        """
        terms = [
            row if coeff == 1 else row.translate(GF256.mul_table(coeff))
            for coeff, row in zip(coefficients, rows)
            if coeff
        ]
        if _np is not None and terms:
            stacked = _np.frombuffer(b"".join(terms), dtype=_np.uint8)
            return _np.bitwise_xor.reduce(
                stacked.reshape(len(terms), length), axis=0
            ).tobytes()
        acc = 0
        for term in terms:
            acc ^= int.from_bytes(term, "big")
        return acc.to_bytes(length, "big")

    @classmethod
    def _apply_matrix(
        cls,
        coefficient_rows: Sequence[Sequence[int]],
        rows: Sequence[bytes],
        length: int,
    ) -> List[bytes]:
        """All output rows of ``C x rows``."""
        return [
            cls._combine_rows(coefficients, rows, length)
            for coefficients in coefficient_rows
        ]

    # ------------------------------------------------------------------
    # Chunk API
    # ------------------------------------------------------------------

    def encode_chunks(self, data_chunks: Sequence[bytes]) -> List[bytes]:
        """Return all ``n_total`` chunks (data first, then parity)."""
        if len(data_chunks) != self.n_data:
            raise ValueError(
                f"expected {self.n_data} data chunks, got {len(data_chunks)}"
            )
        length = len(data_chunks[0])
        for chunk in data_chunks:
            if len(chunk) != length:
                raise ValueError("all data chunks must have equal length")
        output = [bytes(chunk) for chunk in data_chunks]
        parity_rows = [
            self.encode_matrix[row_index]
            for row_index in range(self.n_data, self.n_total)
        ]
        output.extend(self._apply_matrix(parity_rows, data_chunks, length))
        return output

    def decode_chunks(self, available: Dict[int, bytes]) -> List[bytes]:
        """Recover the ``n_data`` data chunks from any ``n_data`` chunks.

        ``available`` maps chunk index (0..n_total-1) to chunk bytes; extra
        chunks beyond ``n_data`` are ignored (lowest indices win, which
        prefers the cheap systematic path). Raises ValueError when fewer
        than ``n_data`` chunks are supplied, or on inconsistent sizes.

        Note the Section IV-B caveat: decoding assumes the supplied chunks
        are *correct*; feeding tampered chunks yields a wrong message. The
        optimistic rebuild layer (:mod:`repro.core.rebuild`) is responsible
        for grouping chunks by Merkle root before calling this.
        """
        if len(available) < self.n_data:
            raise ValueError(
                f"need {self.n_data} chunks to decode, got {len(available)}"
            )
        for index in available:
            if not 0 <= index < self.n_total:
                raise ValueError(f"chunk index {index} out of range")
        lengths = {len(chunk) for chunk in available.values()}
        if len(lengths) != 1:
            raise ValueError("chunks have inconsistent sizes")
        length = lengths.pop()

        use_indices = sorted(available)[: self.n_data]
        if use_indices == list(range(self.n_data)):
            return [bytes(available[i]) for i in use_indices]

        cache = self._decode_cache
        key = tuple(use_indices)
        decode_matrix = cache.get(key)
        if decode_matrix is None:
            sub = self.encode_matrix.select_rows(use_indices)
            decode_matrix = sub.invert()
            cache[key] = decode_matrix
            if len(cache) > _DECODE_CACHE_LIMIT:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        # Only the lost data chunks need arithmetic: a surviving one is
        # among ``rows`` (its decode row is a unit vector).
        rows = [available[i] for i in use_indices]
        lost = [decode_matrix[r] for r in range(self.n_data) if r not in available]
        recovered = iter(self._apply_matrix(lost, rows, length))
        return [
            bytes(available[r]) if r in available else next(recovered)
            for r in range(self.n_data)
        ]

    # ------------------------------------------------------------------
    # Message API
    # ------------------------------------------------------------------

    def encode(self, message: bytes) -> List[bytes]:
        """Split ``message`` into data chunks (padding as needed) and encode.

        The message length is prepended so :meth:`decode` can strip padding.
        """
        from repro.erasure.chunking import pad_to_chunks

        return self.encode_chunks(pad_to_chunks(message, self.n_data))

    def decode(self, available: Dict[int, bytes]) -> bytes:
        """Inverse of :meth:`encode`: rebuild the original message."""
        from repro.erasure.chunking import join_chunks

        return join_chunks(self.decode_chunks(available))

    @property
    def overhead(self) -> float:
        """Traffic amplification: total transmitted / useful data."""
        return self.n_total / self.n_data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReedSolomonCodec(n_data={self.n_data}, n_parity={self.n_parity})"

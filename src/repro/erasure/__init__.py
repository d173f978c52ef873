"""Erasure-coding substrate: Reed-Solomon over GF(2^8), from scratch.

The paper's implementation uses the klauspost/reedsolomon Go library; this
package provides the same functionality in pure Python (with an optional
numpy fast path): finite-field arithmetic (:mod:`repro.erasure.galois`),
matrix algebra with inversion (:mod:`repro.erasure.matrix`), a systematic
Reed-Solomon codec supporting arbitrary ``(n_data, n_parity)`` splits
(:mod:`repro.erasure.reed_solomon`), and entry chunking helpers
(:mod:`repro.erasure.chunking`).

The codec guarantees the property MassBFT's replication relies on
(Section IV-B): any ``n_data`` of the ``n_total`` chunks — identified by
their chunk indices — reconstruct the original message exactly.
"""

from repro.erasure.chunking import pad_to_chunks, join_chunks
from repro.erasure.galois import GF256
from repro.erasure.matrix import Matrix
from repro.erasure.reed_solomon import ReedSolomonCodec

__all__ = [
    "GF256",
    "Matrix",
    "ReedSolomonCodec",
    "join_chunks",
    "pad_to_chunks",
]

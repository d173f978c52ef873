"""Microbenchmark kernel definitions for ``repro perf``.

Each kernel is a zero-argument callable plus a ``units_per_op`` factor
(how many interesting units — events, transactions, rows — one call
processes), so the harness can report natural rates (events/s, txns/s)
while timing whole calls. Inputs are fixed and deterministic: two runs on
the same machine do the same work, so differences are timing noise, not
workload drift.

The erasure kernels time whichever XOR accumulation the codec uses on
this install: numpy when importable, ints otherwise (the report's
``numpy`` field says which).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List

from repro.crypto.keystore import KeyStore
from repro.erasure import reed_solomon
from repro.erasure.galois import GF256
from repro.erasure.reed_solomon import ReedSolomonCodec
from repro.sim.core import Simulator


@dataclass(frozen=True)
class Kernel:
    """One microbenchmark: ``fn`` does ``units_per_op`` units of work."""

    name: str
    fn: Callable[[], object]
    units_per_op: int = 1
    #: Human label for the unit (ops, events, txns) — report metadata.
    unit: str = "ops"


@contextmanager
def force_no_numpy() -> Iterator[None]:
    """Make the codec behave as on a numpy-less install.

    Swaps the module-level numpy handle out for the duration, which
    puts the codec on its int-XOR fallback — tests use it to assert the
    harness and codec work identically without numpy.
    """
    saved = reed_solomon._np
    reed_solomon._np = None
    try:
        yield
    finally:
        reed_solomon._np = saved


def _pattern_bytes(length: int, salt: int) -> bytes:
    return bytes((i * 131 + salt) % 256 for i in range(length))


# ----------------------------------------------------------------------
# Kernel builders
# ----------------------------------------------------------------------


def _calibration_kernel() -> Kernel:
    """Fixed pure-Python spin used to normalise for machine speed.

    End-to-end wall-clock on a slow CI runner would read as a regression
    against a baseline recorded on a fast workstation; dividing by this
    kernel's rate cancels most of that.
    """

    def op() -> int:
        total = 0
        for i in range(10_000):
            total += (i * i) & 0xFF
        return total

    return Kernel("calibration.spin", op, units_per_op=10_000, unit="iters")


def _erasure_kernels() -> List[Kernel]:
    codec = ReedSolomonCodec(n_data=7, n_parity=7)
    chunk = 4096
    data = [_pattern_bytes(chunk, salt) for salt in range(7)]
    encoded = codec.encode_chunks(data)
    # Parity-heavy survivor set: drops data chunks 0-2, forcing the
    # matrix-inversion decode path (and exercising the decode cache).
    available = {i: encoded[i] for i in range(3, 10)}

    def encode_op() -> object:
        return codec.encode_chunks(data)

    def decode_op() -> object:
        return codec.decode_chunks(available)

    return [
        Kernel("erasure.encode", encode_op, units_per_op=1),
        Kernel("erasure.decode", decode_op, units_per_op=1),
    ]


def _gf_kernel() -> Kernel:
    row = _pattern_bytes(65536, 7)

    def op() -> bytes:
        return GF256.mul_row(0x57, row)

    return Kernel("gf.mul_row_64k", op, units_per_op=1)


def _crypto_kernels() -> List[Kernel]:
    from repro.crypto.certificates import QuorumCertificate
    from repro.sim.network import NodeAddress

    keystore = KeyStore(seed=0)
    members = [NodeAddress.of(0, i) for i in range(7)]
    for addr in members:
        keystore.register(addr)
    statement = b"pbft.g0:commit:42:" + _pattern_bytes(32, 3)
    cert = QuorumCertificate.assemble(
        statement,
        {addr: keystore.sign_as(addr, statement) for addr in members[:5]},
    )

    def sign_op() -> object:
        return keystore.sign_as(members[0], statement)

    def verify_cold_op() -> bool:
        # Clearing the memo each call measures first-audit cost — the
        # price a replica pays the first time it sees a certificate.
        keystore._verify_cache.clear()
        return cert.verify(keystore, quorum=5)

    def verify_cached_op() -> bool:
        return cert.verify(keystore, quorum=5)

    return [
        Kernel("crypto.sign", sign_op),
        Kernel("crypto.verify_batch_cold", verify_cold_op, units_per_op=5,
               unit="sigs"),
        Kernel("crypto.verify_batch_cached", verify_cached_op, units_per_op=5,
               unit="sigs"),
    ]


def _sim_kernel() -> Kernel:
    chain = 2000

    def op() -> int:
        sim = Simulator()
        fired = 0

        def callback() -> None:
            nonlocal fired
            fired += 1
            if fired < chain:
                sim.schedule(0.001, callback)

        sim.schedule(0.0, callback)
        sim.run(until=chain)
        return fired

    return Kernel("sim.event_loop", op, units_per_op=chain, unit="events")


def _workload_kernel() -> Kernel:
    import random

    from repro.workloads import make_workload

    workload = make_workload("ycsb-a")
    rng = random.Random(1234)
    gen = workload.generator_for(rng)

    def op() -> object:
        return gen(0.5)

    return Kernel("workload.ycsb_a_generate", op, unit="txns")


def build_kernels() -> List[Kernel]:
    """All production-path kernels."""
    kernels = [_calibration_kernel()]
    kernels.extend(_erasure_kernels())
    kernels.append(_gf_kernel())
    kernels.extend(_crypto_kernels())
    kernels.append(_sim_kernel())
    kernels.append(_workload_kernel())
    return kernels


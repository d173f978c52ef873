"""Micro pass: direct calls into each layer's public functions.

Fixed inputs, profiler off, cyclic GC paused, best of ``repeats`` timed
batches (the minimum is the least-noise estimate of a kernel's cost).
Rates are operations per *host* second. They say how fast a layer's
primitive is in isolation; whether that matters end to end is what the
traced shares and the workloads' ``wall_s`` decide.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Callable, Dict, List, Tuple

#: name -> unit, in report order.
MICRO_UNITS = {
    "calibration.spin_iters_per_s": "1/s",
    "sim.event_loop_events_per_s": "1/s",
    "erasure.encode_mb_per_s": "MB/s",
    "erasure.decode_mb_per_s": "MB/s",
    "crypto.sign_per_s": "1/s",
    "crypto.verify_cold_sigs_per_s": "1/s",
    "crypto.verify_cached_sigs_per_s": "1/s",
    "crypto.merkle_root_per_s": "1/s",
    "workloads.ycsb_a_txns_per_s": "1/s",
    "workloads.smallbank_txns_per_s": "1/s",
    "workloads.tpcc_txns_per_s": "1/s",
    "ledger.aria_execute_txns_per_s": "1/s",
    "traffic.poisson_arrivals_per_s": "1/s",
}

Kernel = Tuple[str, Callable[[], object], float]  # name, op, units per op


def best_rate(op: Callable[[], object], batch_seconds: float, repeats: int) -> float:
    """Best observed calls per second of ``op``."""
    clock = time.perf_counter
    number = 1
    while True:
        start = clock()
        for _ in range(number):
            op()
        best = clock() - start
        if best >= batch_seconds:
            break
        number *= 2 if best > batch_seconds / 4 else 8
    for _ in range(repeats - 1):
        start = clock()
        for _ in range(number):
            op()
        best = min(best, clock() - start)
    return number / best


def _pattern(length: int, salt: int) -> bytes:
    return bytes((i * 131 + salt) % 256 for i in range(length))


def build_kernels() -> List[Kernel]:
    from repro.crypto import KeyStore, MerkleTree, QuorumCertificate, verify
    from repro.erasure import ReedSolomonCodec
    from repro.ledger import AriaExecutor
    from repro.sim.core import Simulator
    from repro.sim.network import NodeAddress
    from repro.traffic import ConstantCurve, PoissonProcess
    from repro.workloads import make_workload

    kernels: List[Kernel] = []

    def spin() -> int:
        total = 0
        for i in range(10_000):
            total += (i * i) & 0xFF
        return total

    kernels.append(("calibration.spin_iters_per_s", spin, 10_000))

    chain = 2_000

    def event_loop() -> int:
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

    kernels.append(("sim.event_loop_events_per_s", event_loop, chain))

    # 7 data + 7 parity chunks of 4 KiB; decode with data chunks 0-2 lost,
    # which forces the matrix-inversion path.
    codec = ReedSolomonCodec(n_data=7, n_parity=7)
    data = [_pattern(4096, salt) for salt in range(7)]
    encoded = codec.encode_chunks(data)
    survivors = {i: encoded[i] for i in range(3, 10)}
    megabytes = 7 * 4096 / 1e6
    kernels.append(
        ("erasure.encode_mb_per_s", lambda: codec.encode_chunks(data), megabytes)
    )
    kernels.append(
        ("erasure.decode_mb_per_s", lambda: codec.decode_chunks(survivors), megabytes)
    )

    keystore = KeyStore(seed=0)
    members = [NodeAddress.of(0, i) for i in range(7)]
    keypairs = [keystore.register(addr) for addr in members]
    statement = b"pbft.g0:commit:42:" + _pattern(32, 3)
    signatures = [keystore.sign_as(addr, statement) for addr in members[:5]]
    certificate = QuorumCertificate.assemble(
        statement, dict(zip(members, signatures))
    )

    def verify_cold() -> None:
        # The bare check, which is what a verification-memo miss costs.
        for keypair, signature in zip(keypairs, signatures):
            verify(keypair, statement, signature)

    kernels.append(
        ("crypto.sign_per_s", lambda: keystore.sign_as(members[0], statement), 1)
    )
    kernels.append(("crypto.verify_cold_sigs_per_s", verify_cold, 5))
    kernels.append(
        (
            "crypto.verify_cached_sigs_per_s",
            lambda: certificate.verify(keystore, quorum=5),
            5,
        )
    )
    kernels.append(
        ("crypto.merkle_root_per_s", lambda: MerkleTree(encoded).root, 1)
    )

    for name in ("ycsb-a", "smallbank", "tpcc"):
        generate = make_workload(name).generator_for(random.Random(1234))
        metric = "workloads.%s_txns_per_s" % name.replace("-", "_")
        kernels.append((metric, lambda generate=generate: generate(0.5), 1))

    # One 600-transaction batch (a 20 ms batch at 30k tx/s) with YCSB-A's
    # full execution logic; unpopulated rows read their initial value.
    ycsb = make_workload("ycsb-a")
    executor = AriaExecutor()
    ycsb.register(executor)
    generate = ycsb.generator_for(random.Random(99))
    batch = [generate(0.5) for _ in range(600)]
    kernels.append(
        ("ledger.aria_execute_txns_per_s", lambda: executor.execute_batch(batch), 600)
    )

    arrivals = PoissonProcess(ConstantCurve(50_000.0), random.Random(7))
    kernels.append(
        (
            "traffic.poisson_arrivals_per_s",
            lambda: arrivals.take_until(float("inf"), max_n=1_000),
            1_000,
        )
    )
    return kernels


def run_micro(quick: bool = False) -> Dict[str, float]:
    """Every micro metric, in units per host second (``quick`` times
    shorter batches, for ``--smoke``)."""
    batch_seconds, repeats = (0.005, 2) if quick else (0.03, 5)
    kernels = build_kernels()
    results: Dict[str, float] = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name, op, units in kernels:
            results[name] = best_rate(op, batch_seconds, repeats) * units
    finally:
        if gc_was_enabled:
            gc.enable()
    return results

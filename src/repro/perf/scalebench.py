"""Synthetic scale point for the event core (``repro scale``).

Runs a protocol-shaped synthetic workload — per-group PBFT-style message
storms on the paper's 20 ms batch timer, plus cross-group commit
certificates over the WAN latency matrix — on one
:class:`~repro.sim.core.Simulator`, all groups interleaved in the single
heap loop. No :class:`~repro.sim.network.Network`, codec or ledger is
built, so a 1024-node point costs seconds and measures the event core
alone.

Each group folds its executed events into an FNV-1a digest; the digests
(and their merge) are the deterministic record ``scale_point`` returns.

Cross-group arrival times carry tiny per-source epsilons
(``+1e-9*(src+1) + 1e-13*seq``) so no two events in the whole system
ever tie: digests then compare exactly without depending on the
queue's tie-breaking order.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, Tuple

from repro.sim.core import Simulator
from repro.topology import worldwide_scaled_cluster

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = 0xFFFFFFFFFFFFFFFF

#: One LAN hop inside a group's data center (seconds).
LAN_HOP = 0.00025
#: The paper's batch timer.
BATCH_INTERVAL = 0.020

_KIND_IDS = {"batch": 1, "preprepare": 2, "prepare": 3, "commit": 4, "cert": 5}


def _float_bits(value: float) -> int:
    """Exact 64-bit pattern of a float (digests must not round)."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]


class BenchGroup:
    """One group's synthetic consensus workload.

    ``peers`` maps every gid to its group; certificates to a peer are
    scheduled straight onto its ``on_cert``.
    """

    def __init__(
        self,
        gid: int,
        peers: Dict[int, "BenchGroup"],
        n_nodes: int,
        sim: Simulator,
        latency: Callable[[int, int], float],
    ) -> None:
        self.gid = gid
        self.peers = peers
        self.n_nodes = n_nodes
        self.sim = sim
        self.latency = latency
        self._acc = FNV_OFFSET
        self._cross_seq = 0

    def install(self) -> None:
        offset = (self.gid + 1) * 1e-4  # desynchronised, like the runtime
        self.sim.set_timer(
            BATCH_INTERVAL + offset, self.on_batch, interval=BATCH_INTERVAL
        )

    # -- local consensus round -----------------------------------------

    def on_batch(self) -> None:
        self._note("batch", self.gid, 0)
        now = self.sim.now
        n = self.n_nodes
        schedule_at = self.sim.schedule_at
        # Pre-prepare: leader to each replica, one LAN hop.
        base = now + LAN_HOP
        for j in range(1, n):
            schedule_at(base + j * 1e-7, self.on_msg, "preprepare", j)
        # Prepare: all-to-all.
        base = now + 2 * LAN_HOP
        k = 0
        for i in range(n):
            for j in range(n):
                if i != j:
                    schedule_at(base + k * 1e-7, self.on_msg, "prepare", j)
                    k += 1
        # Commit notices back to the replicas.
        base = now + 3 * LAN_HOP + 1e-5
        for j in range(1, n):
            schedule_at(base + j * 1e-7, self.on_msg, "commit", j)
        # Certificate fan-out to every other group once commit lands.
        schedule_at(base + n * 1e-7 + LAN_HOP, self.send_certs)

    def on_msg(self, kind: str, node: int) -> None:
        self._note(kind, self.gid, node)

    def send_certs(self) -> None:
        now = self.sim.now
        src = self.gid
        schedule_at = self.sim.schedule_at
        for dst, peer in self.peers.items():
            if dst == src:
                continue
            seq = self._cross_seq
            self._cross_seq = seq + 1
            # The epsilons keep every arrival globally unique.
            arrival = (
                now + self.latency(src, dst) + 1e-9 * (src + 1) + 1e-13 * seq
            )
            schedule_at(arrival, peer.on_cert, src, seq)

    def on_cert(self, src_gid: int, seq: int) -> None:
        self._note("cert", src_gid, seq)

    # -- digest --------------------------------------------------------

    def _note(self, kind: str, a: int, b: int) -> None:
        acc = self._acc
        for value in (_float_bits(self.sim.now), _KIND_IDS[kind], a, b):
            for _ in range(8):
                acc = ((acc ^ (value & 0xFF)) * FNV_PRIME) & MASK64
                value >>= 8
        self._acc = acc

    def hexdigest(self) -> str:
        return f"{self._acc:016x}"


def _latency_fn(cluster) -> Callable[[int, int], float]:
    rtt = cluster.rtt_matrix

    def latency(src: int, dst: int) -> float:
        key = (src, dst) if src < dst else (dst, src)
        return rtt[key] / 2.0

    return latency


def run_classic(
    cluster, nodes_per_group: int, duration: float
) -> Tuple[Dict[int, str], int]:
    """All groups in one heap loop; returns (digests, events)."""
    sim = Simulator()
    latency = _latency_fn(cluster)
    groups: Dict[int, BenchGroup] = {}
    for gid in range(cluster.n_groups):
        groups[gid] = BenchGroup(gid, groups, nodes_per_group, sim, latency)
    for group in groups.values():
        group.install()
    sim.run(until=duration)
    digests = {gid: group.hexdigest() for gid, group in groups.items()}
    return digests, sim.events_processed


def scale_point(
    n_groups: int,
    nodes_per_group: int = 7,
    duration: float = 0.5,
) -> Dict[str, Any]:
    """One scale point as a deterministic record.

    The record deliberately excludes wall-clock timings, so outputs for
    the same topology can be diffed byte-for-byte (CI checks the
    1024-node point against ``benchmarks/scale_worldwide_1024.json``).
    """
    cluster = worldwide_scaled_cluster(n_groups, nodes_per_group)
    digests, events = run_classic(cluster, nodes_per_group, duration)
    merged = FNV_OFFSET
    for gid in sorted(digests):
        for token in (str(gid), digests[gid]):
            for byte in token.encode():
                merged = ((merged ^ byte) * FNV_PRIME) & MASK64
    return {
        "schema": "repro-scale/1",
        "cluster": cluster.name,
        "groups": n_groups,
        "nodes_per_group": nodes_per_group,
        "total_nodes": n_groups * nodes_per_group,
        "duration": duration,
        "events": events,
        "digests": {str(gid): digests[gid] for gid in sorted(digests)},
        "merged_digest": f"{merged:016x}",
    }

"""The four benchmark workloads and why each exists.

All four run protocol ``massbft`` on the classic kernel with open-loop
arrivals: clients send on a schedule whatever the system does, and every
transaction is timed from the simulated instant it was due. The seed is
the only input the harness generates; the program receives it through
``GeoDeployment(seed=...)`` exactly as ``benchmarks/*.py`` pass it.

Builders import :mod:`repro` lazily so this module can be imported (for
its names and reasons) in a checkout that has no ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

#: Modules a worker imports before it can build any deployment; the
#: import is timed in fresh interpreters and is part of ``setup_s``.
BASE_IMPORTS = ("repro.protocols", "repro.topology", "repro.workloads")


@dataclass(frozen=True)
class Workload:
    """One named set of inputs. ``build(seed, scale)`` returns a fresh
    deployment; ``scale`` divides every simulated time (1 for a real run,
    4 for ``--smoke``)."""

    name: str
    why: str
    duration: float
    warmup: float
    build: Callable[[int, float], object]
    imports: Tuple[str, ...] = BASE_IMPORTS


def _deployment(cluster_nodes: int, offered_load, seed: int, **options):
    from repro.protocols import GeoDeployment, protocol_by_name
    from repro.topology import nationwide_cluster
    from repro.workloads import make_workload

    return GeoDeployment(
        nationwide_cluster(cluster_nodes),
        protocol_by_name("massbft"),
        make_workload("ycsb-a"),
        offered_load=offered_load,
        seed=seed,
        **options,
    )


def _fig08_nationwide(seed: int, scale: float):
    return _deployment(7, 30_000.0, seed)


def _fig13a_group40(seed: int, scale: float):
    return _deployment(40, 40_000.0, seed)


def _real_payload(seed: int, scale: float):
    return _deployment(7, 30_000.0, seed, coding="real", execution="full")


def _churn_flash_crash(seed: int, scale: float):
    from repro.traffic import TrafficSpec

    traffic = TrafficSpec.flash_crowd(
        base=8_000.0,
        spike=48_000.0,
        start=2.0 / scale,
        duration=3.0 / scale,
        n_groups=3,
        hot_groups=(0,),
        ramp=0.1 / scale,
    )
    deployment = _deployment(
        7, traffic.offered_load(range(3)), seed, traffic=traffic, control="aimd"
    )
    deployment.join_node_at(1, 2.0 / scale)
    deployment.leave_node_at(2, 3, 3.0 / scale)
    deployment.crash_group_at(0, 6.0 / scale)
    return deployment


WORKLOADS = (
    Workload(
        "fig08_nationwide",
        "paper's headline saturated point; few events per commit, so workload "
        "generation and the ledger carry the host cost",
        duration=6.0,
        warmup=1.5,
        build=_fig08_nationwide,
    ),
    Workload(
        "fig13a_group40",
        "40-node groups: about 7 events per commit, so the event core, NIC model "
        "and replication fan-out carry the host cost and workload generation none",
        duration=1.5,
        warmup=0.5,
        build=_fig13a_group40,
    ),
    Workload(
        "real_payload",
        "fig08 with real Reed-Solomon, Merkle proofs and full Aria execution on a "
        "populated store; the only workload where erasure, crypto, memory and "
        "set-up matter",
        duration=2.0,
        warmup=0.5,
        build=_real_payload,
    ),
    Workload(
        "churn_flash_crash",
        "Poisson flash crowd, AIMD controller, join, leave and a group crash in "
        "one run: the buffered admission path, reconfiguration and takeover, with "
        "requests due while a group is down",
        duration=9.0,
        warmup=1.5,
        build=_churn_flash_crash,
        imports=BASE_IMPORTS + ("repro.traffic", "repro.control"),
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}

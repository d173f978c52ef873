"""Cluster configuration model.

A :class:`ClusterConfig` fully describes a deployment: the groups (data
centers) with their sizes and per-node WAN bandwidths, the inter-group RTT
matrix, and LAN characteristics. Presets for the paper's environments
live in :mod:`repro.topology.presets`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.network import (
    DEFAULT_LAN_BANDWIDTH,
    DEFAULT_LAN_LATENCY,
    DEFAULT_WAN_BANDWIDTH,
)


@dataclass
class GroupConfig:
    """One data center group."""

    gid: int
    n_nodes: int
    region: str = ""
    #: Per-node WAN bandwidth (bits/s); None uses the cluster default.
    wan_bandwidth: Optional[float] = None
    #: Per-node overrides (node index -> bits/s), e.g. Fig 14's slow nodes.
    node_bandwidth: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"group {self.gid} needs at least one node")

    @property
    def f(self) -> int:
        """Byzantine nodes tolerated: floor((n-1)/3)."""
        return (self.n_nodes - 1) // 3

    def bandwidth_of(self, index: int, default: float) -> float:
        """Effective WAN bandwidth of node ``index``."""
        if index in self.node_bandwidth:
            return self.node_bandwidth[index]
        if self.wan_bandwidth is not None:
            return self.wan_bandwidth
        return default


@dataclass
class ClusterConfig:
    """A full deployment description."""

    groups: List[GroupConfig]
    #: RTT seconds between group pairs, keyed (i, j) with i < j.
    rtt_matrix: Dict[Tuple[int, int], float]
    wan_bandwidth: float = DEFAULT_WAN_BANDWIDTH
    lan_bandwidth: float = DEFAULT_LAN_BANDWIDTH
    lan_latency: float = DEFAULT_LAN_LATENCY
    name: str = "cluster"

    def __post_init__(self) -> None:
        gids = [g.gid for g in self.groups]
        if gids != list(range(len(self.groups))):
            raise ValueError(f"group ids must be 0..{len(self.groups) - 1}, got {gids}")
        for i in range(len(self.groups)):
            for j in range(i + 1, len(self.groups)):
                if (i, j) not in self.rtt_matrix:
                    raise ValueError(f"missing RTT for group pair ({i}, {j})")

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def f_g(self) -> int:
        """Crashed groups tolerated: floor((n_g - 1) / 2) (global Raft)."""
        return (self.n_groups - 1) // 2

    def group(self, gid: int) -> GroupConfig:
        return self.groups[gid]

    def describe(self) -> str:
        sizes = ", ".join(
            f"G{g.gid}({g.region or '-'}): {g.n_nodes}" for g in self.groups
        )
        return f"{self.name}: {self.n_groups} groups [{sizes}]"

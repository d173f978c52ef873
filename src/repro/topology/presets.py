"""The paper's physical environments as cluster presets (Section VI).

* *Nationwide*: Zhangjiakou (North China), Chengdu (West China), Hangzhou
  (East China); RTTs between 26.7 ms and 43.4 ms.
* *Worldwide*: Hong Kong, London, Silicon Valley; RTTs 156-206 ms.
* *Scaled*: up to 7 groups (adding Shenzhen, Beijing, Shanghai,
  Guangzhou) for the Fig 13b group-scaling experiment.

Each node has an exclusive 20 Mbps WAN attachment; LAN is 2.5 Gbps.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.topology.cluster import ClusterConfig, GroupConfig

#: 20 Mbps in bits/second.
WAN_20MBPS = 20e6
WAN_40MBPS = 40e6

NATIONWIDE_REGIONS = ("Zhangjiakou", "Chengdu", "Hangzhou")
#: Measured RTTs (seconds) between the nationwide regions.
NATIONWIDE_RTT: Dict[Tuple[int, int], float] = {
    (0, 1): 0.0434,  # Zhangjiakou <-> Chengdu (the slowest pair)
    (0, 2): 0.0331,  # Zhangjiakou <-> Hangzhou
    (1, 2): 0.0267,  # Chengdu <-> Hangzhou (the fastest pair)
}

WORLDWIDE_REGIONS = ("HongKong", "London", "SiliconValley")
WORLDWIDE_RTT: Dict[Tuple[int, int], float] = {
    (0, 1): 0.2060,  # Hong Kong <-> London
    (0, 2): 0.1560,  # Hong Kong <-> Silicon Valley
    (1, 2): 0.1450,  # London <-> Silicon Valley (within the paper's range)
}

SCALED_REGIONS = NATIONWIDE_REGIONS + ("Shenzhen", "Beijing", "Shanghai", "Guangzhou")


def _uniform_groups(
    sizes: Sequence[int], regions: Sequence[str]
) -> list:
    return [
        GroupConfig(gid=i, n_nodes=n, region=regions[i % len(regions)])
        for i, n in enumerate(sizes)
    ]


def nationwide_cluster(
    nodes_per_group: int = 7,
    group_sizes: Optional[Sequence[int]] = None,
    wan_bandwidth: float = WAN_20MBPS,
) -> ClusterConfig:
    """The 3-group nationwide cluster (default 7 nodes per group)."""
    sizes = list(group_sizes) if group_sizes is not None else [nodes_per_group] * 3
    if len(sizes) != 3:
        raise ValueError("the nationwide cluster has exactly 3 groups")
    return ClusterConfig(
        groups=_uniform_groups(sizes, NATIONWIDE_REGIONS),
        rtt_matrix=dict(NATIONWIDE_RTT),
        wan_bandwidth=wan_bandwidth,
        name="nationwide",
    )


def hetero_nationwide_cluster(
    nodes_per_group: int = 7,
    slow_nodes: int = 2,
    slow_bandwidth: float = 5e6,
    wan_bandwidth: float = WAN_20MBPS,
) -> ClusterConfig:
    """Fig 14's heterogeneous-bandwidth nationwide cluster.

    The last ``slow_nodes`` nodes of every group attach at
    ``slow_bandwidth`` (default 5 Mbps) instead of the uniform 20 Mbps —
    the per-link skew regime where encoded replication's parity budget
    (and the adaptive controller's stale-send margin) earn their keep.
    Node 0 is never slowed so the initial representative keeps its full
    uplink.
    """
    if not 0 <= slow_nodes < nodes_per_group:
        raise ValueError("slow_nodes must leave at least one fast node")
    overrides = {
        nodes_per_group - 1 - i: slow_bandwidth for i in range(slow_nodes)
    }
    groups = [
        GroupConfig(
            gid=i,
            n_nodes=nodes_per_group,
            region=NATIONWIDE_REGIONS[i],
            node_bandwidth=dict(overrides),
        )
        for i in range(3)
    ]
    return ClusterConfig(
        groups=groups,
        rtt_matrix=dict(NATIONWIDE_RTT),
        wan_bandwidth=wan_bandwidth,
        name="nationwide-hetero",
    )


def worldwide_cluster(
    nodes_per_group: int = 7, wan_bandwidth: float = WAN_20MBPS
) -> ClusterConfig:
    """The 3-group worldwide cluster (default 7 nodes per group)."""
    return ClusterConfig(
        groups=_uniform_groups([nodes_per_group] * 3, WORLDWIDE_REGIONS),
        rtt_matrix=dict(WORLDWIDE_RTT),
        wan_bandwidth=wan_bandwidth,
        name="worldwide",
    )


def scaled_cluster(
    n_groups: int,
    nodes_per_group: int = 7,
    wan_bandwidth: float = WAN_20MBPS,
) -> ClusterConfig:
    """3 to 7 groups across Chinese regions (Fig 13b's environment).

    RTTs for the added regions interpolate within the nationwide range
    (26.7-43.4 ms), deterministically per pair.
    """
    if not 2 <= n_groups <= len(SCALED_REGIONS):
        raise ValueError(f"supported group counts: 2..{len(SCALED_REGIONS)}")
    rtts: Dict[Tuple[int, int], float] = {}
    for i in range(n_groups):
        for j in range(i + 1, n_groups):
            if (i, j) in NATIONWIDE_RTT:
                rtts[(i, j)] = NATIONWIDE_RTT[(i, j)]
            else:
                spread = 0.0434 - 0.0267
                rtts[(i, j)] = 0.0267 + spread * (((i * 7 + j * 13) % 10) / 10.0)
    return ClusterConfig(
        groups=_uniform_groups([nodes_per_group] * n_groups, SCALED_REGIONS),
        rtt_matrix=rtts,
        wan_bandwidth=wan_bandwidth,
        name=f"scaled-{n_groups}g",
    )


def worldwide_scaled_cluster(
    n_groups: int,
    nodes_per_group: int = 7,
    wan_bandwidth: float = WAN_20MBPS,
) -> ClusterConfig:
    """Worldwide-scale clusters beyond the paper's 3 regions (up to 64).

    Used by the synthetic scale point (``repro scale``): a 32-group x
    32-node instance is a 1024-node planet-scale deployment. RTTs
    interpolate within the worldwide range (145-206 ms),
    deterministically per pair.
    """
    if not 2 <= n_groups <= 64:
        raise ValueError("supported group counts: 2..64")
    rtts: Dict[Tuple[int, int], float] = {}
    lo, hi = 0.1450, 0.2060
    for i in range(n_groups):
        for j in range(i + 1, n_groups):
            if (i, j) in WORLDWIDE_RTT and n_groups <= 3:
                rtts[(i, j)] = WORLDWIDE_RTT[(i, j)]
            else:
                rtts[(i, j)] = lo + (hi - lo) * (((i * 11 + j * 17) % 16) / 16.0)
    regions = [f"Region{i:02d}" for i in range(n_groups)]
    return ClusterConfig(
        groups=_uniform_groups([nodes_per_group] * n_groups, regions),
        rtt_matrix=rtts,
        wan_bandwidth=wan_bandwidth,
        name=f"worldwide-{n_groups}g",
    )

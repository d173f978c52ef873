"""Tests for cluster configuration and the paper's environment presets."""

import pytest

from repro.topology.cluster import ClusterConfig, GroupConfig
from repro.topology.presets import (
    NATIONWIDE_RTT,
    WORLDWIDE_RTT,
    nationwide_cluster,
    scaled_cluster,
    worldwide_cluster,
)


class TestGroupConfig:
    def test_fault_bound(self):
        assert GroupConfig(0, 4).f == 1
        assert GroupConfig(0, 7).f == 2
        assert GroupConfig(0, 40).f == 13

    def test_bandwidth_resolution(self):
        g = GroupConfig(0, 4, wan_bandwidth=40e6, node_bandwidth={2: 20e6})
        assert g.bandwidth_of(0, default=10e6) == 40e6
        assert g.bandwidth_of(2, default=10e6) == 20e6
        g2 = GroupConfig(0, 4)
        assert g2.bandwidth_of(0, default=10e6) == 10e6

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            GroupConfig(0, 0)


class TestClusterConfig:
    def test_group_ids_must_be_dense(self):
        with pytest.raises(ValueError):
            ClusterConfig(
                groups=[GroupConfig(1, 4)], rtt_matrix={}
            )

    def test_missing_rtt_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(
                groups=[GroupConfig(0, 4), GroupConfig(1, 4)], rtt_matrix={}
            )

    def test_derived_quantities(self):
        cluster = nationwide_cluster(7)
        assert cluster.n_groups == 3
        assert cluster.f_g == 1
        assert sum(g.n_nodes for g in cluster.groups) == 21
        assert "nationwide" in cluster.describe()


class TestPresets:
    def test_nationwide_rtts_in_paper_range(self):
        for rtt in NATIONWIDE_RTT.values():
            assert 0.0267 <= rtt <= 0.0434

    def test_worldwide_rtts_in_paper_range(self):
        for rtt in WORLDWIDE_RTT.values():
            assert 0.145 <= rtt <= 0.206

    def test_default_bandwidth_is_20mbps(self):
        assert nationwide_cluster().wan_bandwidth == 20e6
        assert worldwide_cluster().wan_bandwidth == 20e6

    def test_heterogeneous_sizes(self):
        cluster = nationwide_cluster(group_sizes=[4, 7, 7])
        assert [g.n_nodes for g in cluster.groups] == [4, 7, 7]

    def test_nationwide_requires_three_groups(self):
        with pytest.raises(ValueError):
            nationwide_cluster(group_sizes=[7, 7])

    def test_scaled_cluster_rtts_complete(self):
        for n in range(3, 8):
            cluster = scaled_cluster(n)
            assert cluster.n_groups == n
            for i in range(n):
                for j in range(i + 1, n):
                    assert 0.0267 <= cluster.rtt_matrix[(i, j)] <= 0.0434

    def test_scaled_cluster_bounds(self):
        with pytest.raises(ValueError):
            scaled_cluster(8)
        with pytest.raises(ValueError):
            scaled_cluster(1)

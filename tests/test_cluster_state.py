"""Cluster state and the free-core index."""

import pytest

from repro.apps.catalog import get_program
from repro.hardware.topology import ClusterSpec
from repro.sim.cluster import ClusterState

EP = get_program("EP")


@pytest.fixture
def cluster():
    state = ClusterState(ClusterSpec(num_nodes=4), partitioned=True)
    yield state
    state.verify_index()
    state.verify_columns()


class TestIndex:
    def test_fresh_cluster_all_idle(self, cluster):
        assert cluster.idle_nodes() == [0, 1, 2, 3]
        assert cluster.total_free_cores() == 4 * 28
        cluster.verify_index()

    def test_place_moves_bucket(self, cluster):
        cluster.place_slices([0], 1, EP, {0: 8}, 2, 0.0, 1)
        assert cluster.idle_nodes() == [1, 2, 3]
        assert cluster.node(0).free_cores == 20
        cluster.verify_index()

    def test_remove_restores_bucket(self, cluster):
        cluster.place_slices([0], 1, EP, {0: 8}, 2, 0.0, 1)
        cluster.remove_slices([0], 1)
        assert sorted(cluster.idle_nodes()) == [0, 1, 2, 3]
        cluster.verify_index()

    def test_groups_by_free_cores(self, cluster):
        cluster.place_slices([0], 1, EP, {0: 8}, 2, 0.0, 1)
        cluster.place_slices([1], 2, EP, {1: 8}, 2, 0.0, 1)
        cluster.place_slices([2], 3, EP, {2: 4}, 2, 0.0, 1)
        groups = cluster.groups_by_free_cores()
        assert sorted(groups[20]) == [0, 1]
        assert groups[24] == [2]
        assert groups[28] == [3]

    def test_groups_min_free_filter(self, cluster):
        cluster.place_slices([0], 1, EP, {0: 27}, 2, 0.0, 1)
        groups = cluster.groups_by_free_cores(min_free=2)
        assert 1 not in groups  # node 0 has 1 free core

    def test_nodes_with_free_cores(self, cluster):
        cluster.place_slices([0], 1, EP, {0: 28}, 2, 0.0, 1)
        assert sorted(cluster.nodes_with_free_cores(1)) == [1, 2, 3]
        assert cluster.count_with_free_cores(1) == 3

    def test_failed_place_keeps_index_consistent(self, cluster):
        cluster.place_slices([0], 1, EP, {0: 28}, 2, 0.0, 1)
        with pytest.raises(Exception):
            cluster.place_slices([0], 2, EP, {0: 4}, 2, 0.0, 1)
        cluster.verify_index()


class TestResidentQueries:
    def test_resident_jobs_on(self, cluster):
        cluster.place_slices([0], 1, EP, {0: 4}, 2, 0.0, 2)
        cluster.place_slices([1], 1, EP, {1: 4}, 2, 0.0, 2)
        cluster.place_slices([1], 2, EP, {1: 4}, 2, 0.0, 1)
        assert cluster.resident_jobs_on([0]) == {1}
        assert cluster.resident_jobs_on([1]) == {1, 2}
        assert cluster.resident_jobs_on([0, 1, 2]) == {1, 2}

    def test_partitioned_flag_propagates(self):
        shared = ClusterState(ClusterSpec(num_nodes=2), partitioned=False)
        assert all(not n.partitioned for n in shared.nodes)
        parted = ClusterState(ClusterSpec(num_nodes=2), partitioned=True)
        assert all(n.partitioned for n in parted.nodes)

"""Node search/selection and process splitting (paper Section 4.4)."""

import pytest

from repro.apps.catalog import get_program
from repro.errors import SchedulingError
from repro.hardware.topology import ClusterSpec
from repro.scheduling.placement import find_nodes, split_procs
from repro.sim.cluster import ClusterState

EP = get_program("EP")
CG = get_program("CG")


@pytest.fixture
def cluster():
    state = ClusterState(ClusterSpec(num_nodes=6), partitioned=True)
    yield state
    state.verify_index()
    state.verify_columns()


class TestSplitProcs:
    def test_even_split(self):
        assert split_procs(16, [0, 1]) == {0: 8, 1: 8}

    def test_uneven_split_front_loaded(self):
        assert split_procs(30, [0, 1, 2, 3]) == {0: 8, 1: 8, 2: 7, 3: 7}

    def test_single_node(self):
        assert split_procs(7, [5]) == {5: 7}

    def test_rejects_more_nodes_than_procs(self):
        with pytest.raises(SchedulingError):
            split_procs(2, [0, 1, 2])

    def test_rejects_empty(self):
        with pytest.raises(SchedulingError):
            split_procs(4, [])


class TestFindNodesBasics:
    def test_empty_cluster_satisfies(self, cluster):
        chosen = find_nodes(cluster, 2, cores=16, ways=4, bw=10.0, beta=2.0)
        assert chosen is not None and len(chosen) == 2

    def test_insufficient_cores_fails(self, cluster):
        for nid in range(6):
            cluster.place_slices([nid], 100 + nid, EP, {nid: 20}, 2, 0.0, 1)
        assert find_nodes(cluster, 1, cores=16, ways=2, bw=0.0, beta=2.0) is None

    def test_insufficient_ways_fails(self, cluster):
        for nid in range(6):
            cluster.place_slices([nid], 100 + nid, CG, {nid: 4}, 17, 0.0, 1)
        assert find_nodes(cluster, 1, cores=4, ways=4, bw=0.0, beta=2.0) is None

    def test_insufficient_bandwidth_fails(self, cluster):
        peak = cluster.spec.node.peak_bw
        for nid in range(6):
            cluster.place_slices([nid], 100 + nid, EP, {nid: 4}, 2,
                                 peak - 5.0, 1)
        assert find_nodes(cluster, 1, cores=4, ways=2, bw=10.0, beta=2.0) is None
        assert find_nodes(cluster, 1, cores=4, ways=2, bw=4.0, beta=2.0) is not None

    def test_validation(self, cluster):
        with pytest.raises(SchedulingError):
            find_nodes(cluster, 0, cores=4, ways=2, bw=0.0, beta=2.0)
        with pytest.raises(SchedulingError):
            find_nodes(cluster, 1, cores=0, ways=2, bw=0.0, beta=2.0)


class TestGroupPreference:
    def test_prefers_single_group(self, cluster):
        # Nodes 0-2 get 8 cores used (group of 20-free), 3-5 idle.
        for nid in (0, 1, 2):
            cluster.place_slices([nid], 100 + nid, EP, {nid: 8}, 2, 0.0, 1)
        chosen = find_nodes(cluster, 2, cores=8, ways=2, bw=0.0, beta=2.0)
        # The idle group (28 free) is idler: chosen from {3,4,5}.
        assert set(chosen) <= {3, 4, 5}

    def test_falls_back_across_groups(self, cluster):
        # Make 6 differently-loaded nodes; no group has 3 members.
        for nid in range(5):
            cluster.place_slices([nid], 100 + nid, EP, {nid: nid + 1}, 2,
                                 0.0, 1)
        chosen = find_nodes(cluster, 3, cores=20, ways=2, bw=0.0, beta=2.0)
        assert chosen is not None and len(chosen) == 3

    def test_selects_lowest_occupancy_metric(self, cluster):
        # Keep the idle nodes out of reach so the 20-free group is used.
        for nid in (3, 4, 5):
            cluster.place_slices([nid], 200 + nid, EP, {nid: 24}, 2, 0.0, 1)
        # Within one group (same free cores) way occupancy breaks ties.
        cluster.place_slices([0], 100, CG, {0: 8}, 12, 0.0, 1)  # heavy ways
        cluster.place_slices([1], 101, CG, {1: 8}, 2, 0.0, 1)   # light ways
        cluster.place_slices([2], 102, CG, {2: 8}, 6, 0.0, 1)   # medium
        chosen = find_nodes(cluster, 2, cores=8, ways=2, bw=0.0, beta=2.0)
        assert chosen == [1, 2]

    def test_beta_zero_ignores_ways(self, cluster):
        for nid in (2, 3, 4, 5):
            cluster.place_slices([nid], 200 + nid, EP, {nid: 24}, 2, 0.0, 1)
        cluster.place_slices([0], 100, CG, {0: 8}, 12, 0.0, 1)
        cluster.place_slices([1], 101, CG, {1: 8}, 2, 0.0, 1)
        chosen = find_nodes(cluster, 1, cores=8, ways=2, bw=0.0, beta=0.0)
        # Identical Co and Bo; tie broken by node id.
        assert chosen == [0]

    def test_idle_shortcut_rejects_impossible_demand(self, cluster):
        # All nodes idle, but the demand exceeds node capacity.
        assert find_nodes(cluster, 1, cores=8, ways=25, bw=0.0, beta=2.0) is None
        assert find_nodes(
            cluster, 1, cores=8, ways=2, bw=1e9, beta=2.0
        ) is None

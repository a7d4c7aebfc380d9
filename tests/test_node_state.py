"""Runtime node state: core/way/bandwidth accounting.

Each test mutates a 1-node :class:`ClusterState` through the batched
``place_slices``/``remove_slices`` pair and reads the node back through
its :class:`~repro.sim.node.NodeState` view; the fixtures re-check the
free-core index and every column against the slice plane afterwards.
"""

import pytest

from repro.apps.catalog import get_program
from repro.errors import AllocationError
from repro.hardware.node_spec import NodeSpec
from repro.hardware.topology import ClusterSpec
from repro.sim.cluster import ClusterState

SPEC = NodeSpec()


def _one_node(partitioned: bool):
    cluster = ClusterState(ClusterSpec(num_nodes=1, node=SPEC),
                           partitioned=partitioned)
    yield cluster
    cluster.verify_index()
    cluster.verify_columns()


@pytest.fixture
def cluster():
    yield from _one_node(partitioned=True)


@pytest.fixture
def shared_cluster():
    yield from _one_node(partitioned=False)


class TestAccounting:
    def test_fresh_node_idle(self, cluster):
        node = cluster.node(0)
        assert node.is_idle
        assert node.free_cores == 28
        assert node.free_ways == 20
        assert node.free_bw == pytest.approx(SPEC.peak_bw)

    def test_place_deducts_resources(self, cluster):
        cluster.place_slices([0], 1, get_program("MG"), {0: 8}, 4, 30.0,
                             n_nodes=2)
        node = cluster.node(0)
        assert node.free_cores == 20
        assert node.free_ways == 16
        assert node.free_bw == pytest.approx(SPEC.peak_bw - 30.0)
        assert not node.is_idle

    def test_remove_restores_resources(self, cluster):
        cluster.place_slices([0], 1, get_program("MG"), {0: 8}, 4, 30.0,
                             n_nodes=2)
        cluster.remove_slices([0], 1)
        node = cluster.node(0)
        assert node.is_idle
        assert node.free_ways == 20
        assert node.free_bw == pytest.approx(SPEC.peak_bw)

    def test_double_place_rejected(self, cluster):
        cluster.place_slices([0], 1, get_program("EP"), {0: 4}, 2, 0.0, 1)
        with pytest.raises(AllocationError):
            cluster.place_slices([0], 1, get_program("EP"), {0: 4}, 2,
                                 0.0, 1)

    def test_remove_absent_rejected(self, cluster):
        with pytest.raises(AllocationError):
            cluster.remove_slices([0], 7)

    def test_core_overflow_rejected(self, cluster):
        cluster.place_slices([0], 1, get_program("EP"), {0: 20}, 2, 0.0, 1)
        with pytest.raises(AllocationError):
            cluster.place_slices([0], 2, get_program("EP"), {0: 10}, 2,
                                 0.0, 1)


class TestCanHost:
    def test_fits(self, cluster):
        assert cluster.node(0).can_host(28, 20, SPEC.peak_bw)

    def test_core_bound(self, cluster):
        assert not cluster.node(0).can_host(29, 2, 0.0)

    def test_way_bound(self, cluster):
        cluster.place_slices([0], 1, get_program("CG"), {0: 8}, 15, 10.0, 1)
        node = cluster.node(0)
        assert not node.can_host(4, 6, 0.0)
        assert node.can_host(4, 5, 0.0)

    def test_bandwidth_bound(self, cluster):
        cluster.place_slices([0], 1, get_program("MG"), {0: 16}, 2, 100.0,
                             1)
        node = cluster.node(0)
        assert not node.can_host(4, 2, 30.0)
        assert node.can_host(4, 2, 10.0)

    def test_unpartitioned_ignores_ways(self, shared_cluster):
        assert shared_cluster.node(0).can_host(4, 0, 0.0)


class TestEffectiveWays:
    def test_partitioned_residual_share(self, cluster):
        cluster.place_slices([0], 1, get_program("CG"), {0: 8}, 10, 10.0, 1)
        cluster.place_slices([0], 2, get_program("EP"), {0: 8}, 2, 0.1, 1)
        node = cluster.node(0)
        # 8 free ways -> +4 each.
        assert node.effective_ways(1) == pytest.approx(14.0)
        assert node.effective_ways(2) == pytest.approx(6.0)

    def test_unpartitioned_proportional_share(self, shared_cluster):
        shared_cluster.place_slices([0], 1, get_program("CG"), {0: 12}, 0,
                                    0.0, 1)
        shared_cluster.place_slices([0], 2, get_program("EP"), {0: 4}, 0,
                                    0.0, 1)
        node = shared_cluster.node(0)
        assert node.effective_ways(1) == pytest.approx(15.0)
        assert node.effective_ways(2) == pytest.approx(5.0)

    def test_absent_job_rejected(self, cluster):
        with pytest.raises(AllocationError):
            cluster.node(0).effective_ways(3)


class TestOccupancyMetric:
    def test_idle_node_is_zero(self, cluster):
        assert cluster.node(0).occupancy_metric(beta=2.0) == 0.0

    def test_beta_weights_ways(self, cluster):
        cluster.place_slices([0], 1, get_program("CG"), {0: 14}, 10, 0.0, 1)
        node = cluster.node(0)
        # Co = 0.5, Wo = 0.5, Bo = 0.
        assert node.occupancy_metric(beta=2.0) == pytest.approx(1.5)
        assert node.occupancy_metric(beta=0.0) == pytest.approx(0.5)

    def test_bandwidth_term_clamped(self, cluster):
        cluster.place_slices([0], 1, get_program("MG"), {0: 14}, 2,
                             SPEC.peak_bw * 2, 1)
        metric = cluster.node(0).occupancy_metric(beta=0.0)
        assert metric == pytest.approx(0.5 + 1.0)


class TestSlices:
    def test_slices_reflect_residents(self, cluster):
        cluster.place_slices([0], 1, get_program("MG"), {0: 8}, 4, 30.0,
                             n_nodes=2)
        cluster.place_slices([0], 2, get_program("EP"), {0: 4}, 2, 0.1,
                             n_nodes=1)
        node = cluster.node(0)
        slices = {s.job_id: s for s in node.slices()}
        assert slices[1].procs == 8
        assert slices[1].n_nodes == 2
        assert slices[1].effective_ways == node.effective_ways(1)
        assert slices[2].program.name == "EP"

    def test_dedicated_ways_partitioned(self, cluster):
        cluster.place_slices([0], 1, get_program("CG"), {0: 8}, 10, 0.0, 1)
        assert cluster.node(0).dedicated_ways(1) == 10

    def test_dedicated_ways_unpartitioned_zero(self, shared_cluster):
        shared_cluster.place_slices([0], 1, get_program("CG"), {0: 8}, 10,
                                    0.0, 1)
        assert shared_cluster.node(0).dedicated_ways(1) == 0

"""Leaf-spine fabric: spec geometry, link-column bookkeeping,
rack-aware placement, the flat-degenerate bit-identity contract, and
the link-conservation invariant (DESIGN.md §13)."""

from __future__ import annotations

import copy

import pytest

from repro.config import SchedulerConfig, SimConfig, TraceConfig
from repro.errors import HardwareModelError
from repro.experiments.common import run_policy
from repro.hardware.fabric import FabricSpec
from repro.hardware.topology import ClusterSpec
from repro.obs import check_trace
from repro.perfmodel.context import PerfContext
from repro.sim.cluster import ClusterState
from repro.workloads.sequences import random_sequence


class TestFabricSpec:
    def test_rejects_bad_rack_size(self):
        with pytest.raises(HardwareModelError):
            FabricSpec(rack_size=0)

    def test_rejects_undersubscription(self):
        with pytest.raises(HardwareModelError):
            FabricSpec(oversubscription=0.5)

    def test_flat_is_inactive(self):
        assert FabricSpec(rack_size=4, oversubscription=1.0).is_flat
        assert not FabricSpec(rack_size=4,
                              oversubscription=1.0).active_for(64)

    def test_single_rack_is_inactive(self):
        fabric = FabricSpec(rack_size=8, oversubscription=4.0)
        assert not fabric.active_for(8)
        assert fabric.active_for(9)

    def test_rack_geometry_short_last_rack(self):
        fabric = FabricSpec(rack_size=3, oversubscription=2.0)
        assert fabric.num_racks(10) == 4
        assert fabric.rack_of(0) == 0 and fabric.rack_of(9) == 3
        assert fabric.rack_map(10).tolist() == \
            [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]
        assert fabric.rack_span(3, 10) == (9, 10)
        assert fabric.rack_population(10).tolist() == [3, 3, 3, 1]

    def test_utilization_units(self):
        fabric = FabricSpec(rack_size=4, oversubscription=4.0)
        # A rack of 4 offers 1 node-link of uplink at 4:1; injecting
        # one node-link saturates it exactly.
        assert fabric.tor_utilization(1.0, 4) == 1.0
        assert fabric.spine_utilization(16.0, 64) == 1.0
        assert fabric.tor_uplink_bw(4) == fabric.link_bw
        assert fabric.bisection_bw(64) == 16 * fabric.link_bw

    def test_routes(self):
        fabric = FabricSpec(rack_size=2, oversubscription=2.0)
        assert fabric.route(3, 3) == ()
        assert "spine" not in fabric.route(2, 3)
        assert "spine" in fabric.route(1, 2)


def _active_cluster(num_nodes=6, rack_size=2, oversub=4.0, **kwargs):
    kwargs.setdefault("partitioned", False)
    return ClusterState(
        ClusterSpec(num_nodes=num_nodes,
                    fabric=FabricSpec(rack_size=rack_size,
                                      oversubscription=oversub)),
        **kwargs,
    )


class TestPickIdlestRackAware:
    def test_fills_within_rack(self):
        # Candidates 0 (rack 0) and 2, 3 (rack 1), all idle: the flat
        # pick is [0, 2], but rack 1 can hold the whole job — the
        # rack-aware pick confines itself there.
        cluster = _active_cluster()
        assert cluster.pick_idlest([0, 2, 3], 2, 0.0) == [0, 2]
        assert cluster.pick_idlest([0, 2, 3], 2, 0.0,
                                   rack_aware=True) == [2, 3]

    def test_prefers_idlest_eligible_rack(self):
        # Racks 1 and 2 both fit the job; rack 2's nodes are busier,
        # so the pick confines to rack 1.
        cluster = _active_cluster()
        cluster.place_slices([4], 1, object(), {4: 8}, 0, 0.0, 1)
        cluster.place_slices([5], 1, object(), {5: 8}, 0, 0.0, 1)
        assert cluster.pick_idlest([2, 3, 4, 5], 2, 0.0,
                                   rack_aware=True) == [2, 3]
        cluster.verify_index()
        cluster.verify_columns()

    def test_tie_breaks_toward_fuller_racks(self):
        # No rack holds all three: equal-metric candidates order by
        # rack candidate count (2, 3 from rack 1) before node id.
        cluster = _active_cluster()
        assert cluster.pick_idlest([0, 2, 3], 3, 0.0,
                                   rack_aware=True) == [2, 3, 0]

    def test_inert_without_fabric(self):
        cluster = ClusterState(ClusterSpec(num_nodes=6))
        assert cluster.pick_idlest([0, 2, 3], 2, 0.0, rack_aware=True) \
            == cluster.pick_idlest([0, 2, 3], 2, 0.0)

    def test_inert_on_flat_fabric(self):
        cluster = _active_cluster(oversub=1.0)
        assert cluster.pick_idlest([0, 2, 3], 2, 0.0, rack_aware=True) \
            == [0, 2]


class TestLinkColumns:
    def test_net_free_placement_books_no_cross(self):
        cluster = _active_cluster()
        cluster.place_slices([0], 1, object(), {0: 4}, 0, 0.0, 2)
        assert float(cluster.columns.booked_cross[0]) == 0.0
        assert cluster.booked_spine == 0.0
        cluster.verify_index()
        cluster.verify_columns()


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

NODES = 10
RACK_SIZE = 3


class _FabricDriver:
    """Randomized place/remove/fail/recover against a fabric-active
    cluster, mirroring the exact-float contract of the cross columns:
    place extends each node's left-to-right sum by one IEEE add,
    removal re-sums the survivors in insertion order."""

    def __init__(self, ctx_enabled: bool) -> None:
        self.cluster = ClusterState(
            ClusterSpec(num_nodes=NODES,
                        fabric=FabricSpec(rack_size=RACK_SIZE,
                                          oversubscription=4.0)),
            partitioned=False,
            ctx=PerfContext(enabled=ctx_enabled),
        )
        self.spec = self.cluster.spec.node
        self.placements: dict = {}  # job_id -> node_ids
        # job_id -> {node_id: cross contribution} in placement order
        self.cross: dict = {}
        # node_id -> current expected booked_cross, updated with the
        # same operation sequence the columns use
        self.expected = [0.0] * NODES
        # node_id -> [(job_id, cross), ...] in insertion order
        self.slices = [[] for _ in range(NODES)]
        self.next_job = 0

    def model_place(self, node_ids, net) -> None:
        count = len(node_ids)
        racks = [nid // RACK_SIZE for nid in node_ids]
        counts = {r: racks.count(r) for r in racks}
        for nid, r in zip(node_ids, racks):
            if net == 0.0 or count <= 1 or len(counts) == 1:
                cross = 0.0
            else:
                cross = net * (count - counts[r]) / (count - 1)
            self.slices[nid].append((self.next_job, cross))
            self.expected[nid] += cross

    def model_remove(self, node_ids, job_id) -> None:
        for nid in node_ids:
            self.slices[nid] = [
                s for s in self.slices[nid] if s[0] != job_id
            ]
            acc = 0.0
            for _, cross in self.slices[nid]:
                acc += cross
            self.expected[nid] = acc

    def check(self) -> None:
        self.cluster.verify_columns()
        self.cluster.verify_index()
        booked = self.cluster.columns.booked_cross
        for nid in range(NODES):
            assert float(booked[nid]) == self.expected[nid], (
                f"node {nid}: booked_cross {float(booked[nid])!r} != "
                f"model {self.expected[nid]!r}"
            )

    def up_hosts(self, procs: int) -> list:
        cluster = self.cluster
        return [
            nid for nid in range(NODES)
            if not cluster.is_down(nid)
            and cluster.nodes[nid].free_cores >= procs
        ]

    def place(self, data) -> None:
        procs = data.draw(st.integers(1, self.spec.cores // 2),
                          label="procs")
        hosts = self.up_hosts(procs)
        if not hosts:
            return
        n = data.draw(st.integers(1, len(hosts)), label="n_nodes")
        node_ids = data.draw(
            st.permutations(hosts).map(lambda p: p[:n]), label="nodes"
        )
        net = data.draw(st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.1]),
                        label="net")
        job_id = self.next_job
        self.cluster.place_slices(
            node_ids, job_id, object(),
            {nid: procs for nid in node_ids}, 0, 0.0, len(node_ids),
            net=net,
        )
        self.model_place(node_ids, net)
        self.placements[job_id] = tuple(node_ids)
        self.next_job += 1

    def remove(self, data) -> None:
        if not self.placements:
            return
        job_id = data.draw(
            st.sampled_from(sorted(self.placements)), label="victim"
        )
        node_ids = self.placements.pop(job_id)
        self.cluster.remove_slices(node_ids, job_id)
        self.model_remove(node_ids, job_id)

    def fail(self, data) -> None:
        idle = [
            nid for nid in range(NODES)
            if not self.cluster.is_down(nid)
            and self.cluster.nodes[nid].is_idle
        ]
        if len(idle) <= 1:
            return
        nid = data.draw(st.sampled_from(idle), label="fail")
        self.cluster.fail_node(nid)

    def recover(self, data) -> None:
        down = self.cluster.down_nodes()
        if not down:
            return
        nid = data.draw(st.sampled_from(down), label="recover")
        self.cluster.recover_node(nid)


@pytest.mark.parametrize("ctx_enabled", [True, False])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_link_columns_match_recomputed_state(ctx_enabled, data):
    driver = _FabricDriver(ctx_enabled)
    ops = data.draw(
        st.lists(
            st.sampled_from(["place", "remove", "fail", "recover"]),
            min_size=1, max_size=24,
        ),
        label="ops",
    )
    for op in ops:
        getattr(driver, op)(data)
        # The contract holds after EVERY operation (verify_columns
        # cross-checks booked_tor / booked_spine against booked_cross;
        # the driver checks booked_cross against the model).
        driver.check()
    # Drain: emptied link columns must reset to exact zeros.
    for job_id, node_ids in sorted(driver.placements.items()):
        driver.cluster.remove_slices(node_ids, job_id)
        driver.model_remove(node_ids, job_id)
    driver.check()
    assert float(driver.cluster.booked_spine) == 0.0


def _traced_run(fabric, *, policy="SNS", level="full", n_jobs=12,
                num_nodes=8, **config_kwargs):
    return run_policy(
        policy,
        ClusterSpec(num_nodes=num_nodes, fabric=fabric),
        random_sequence(seed=3, n_jobs=n_jobs),
        scheduler_config=SchedulerConfig(manage_network=True,
                                         **config_kwargs),
        sim_config=SimConfig(trace=TraceConfig(level=level)),
    )


class TestFlatDegenerateContract:
    """fabric=None, a 1:1 fabric, and a single-rack fabric must be
    indistinguishable — byte-identical full traces, no fabric work."""

    @pytest.mark.parametrize("fabric", [
        FabricSpec(rack_size=2, oversubscription=1.0),
        FabricSpec(rack_size=8, oversubscription=8.0),
    ], ids=["flat-1to1", "single-rack"])
    def test_degenerate_fabric_is_bit_identical(self, fabric):
        base = _traced_run(None)
        degen = _traced_run(fabric)
        assert degen.trace.events == base.trace.events
        assert degen.makespan == base.makespan
        assert degen.mean_turnaround() == base.mean_turnaround()
        assert degen.counters.get("fabric_link_refreshes", 0) == 0
        assert degen.counters.get("fabric_route_evals", 0) == 0

    def test_locality_knob_inert_without_fabric(self):
        base = _traced_run(None)
        loc = _traced_run(None, locality_aware=True)
        assert loc.trace.events == base.trace.events


class TestLinkConservation:
    @pytest.fixture(scope="class")
    def events(self):
        result = _traced_run(
            FabricSpec(rack_size=2, oversubscription=4.0),
            level="events", n_jobs=24,
        )
        return result.trace.events

    def test_active_fabric_run_passes(self, events):
        assert [e for e in events if e["ev"] == "links"], \
            "expected links records on a fabric-active run"
        assert check_trace(events) == []

    def test_catches_corrupted_link_record(self, events):
        corrupted = copy.deepcopy(events)
        links = [e for e in corrupted
                 if e["ev"] == "links" and any(e["tor"])]
        assert links, "expected a loaded links record to corrupt"
        links[-1]["tor"][0] += 0.125
        errors = check_trace(corrupted)
        assert any("ToR" in e for e in errors)

    def test_catches_links_without_fabric(self):
        events = copy.deepcopy(_traced_run(None).trace.events)
        events.append({"ev": "links", "t": 0.0, "tor": [0.0],
                       "spine": 0.0})
        errors = check_trace(events)
        assert any("declares no fabric" in e for e in errors)


class TestFigOversub:
    def test_locality_diverges_under_oversubscription(self):
        from repro.experiments.fig_oversub import run_fig_oversub

        result = run_fig_oversub(oversub_ratios=(1.0, 8.0),
                                 variants=("SNS", "SNS+loc"))
        sns1 = result.get(1.0, "SNS")
        loc1 = result.get(1.0, "SNS+loc")
        # 1:1 is flat: locality has nothing to exploit.
        assert (sns1.makespan, sns1.mean_turnaround) == \
            (loc1.makespan, loc1.mean_turnaround)
        assert sns1.route_evals == 0 and loc1.route_evals == 0
        sns8 = result.get(8.0, "SNS")
        loc8 = result.get(8.0, "SNS+loc")
        # Plain SNS saturates ToR uplinks at 8:1 and pays for it;
        # locality-aware SNS crosses the spine far less.
        assert sns8.makespan > sns1.makespan
        assert loc8.makespan < sns8.makespan
        assert 0 < loc8.route_evals < sns8.route_evals

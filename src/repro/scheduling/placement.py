"""Node search and selection (paper Section 4.4).

SNS reduces fragmentation by first clustering nodes into groups with the
same idle-core count and trying to satisfy a job within one group; only
if no single group suffices does it search the whole cluster.  Among the
qualifying nodes it picks the *idlest* ones — lowest occupancy metric
``Co + Bo + beta * Wo`` (occupied core, bandwidth, and LLC-way
fractions), with the LLC term weighted by ``beta = 2`` because cache
interference hurts most.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

from repro.errors import SchedulingError
from repro.sim.cluster import ClusterState


def split_procs(procs: int, node_ids: Sequence[int]) -> Dict[int, int]:
    """Divide ``procs`` processes across nodes as evenly as possible
    (the paper's load-balanced split: 32 processes on 2 nodes -> 16+16)."""
    n = len(node_ids)
    if n < 1:
        raise SchedulingError("cannot split across zero nodes")
    if procs < n:
        raise SchedulingError(f"cannot split {procs} processes onto {n} nodes")
    base, extra = divmod(procs, n)
    if not extra:
        return dict.fromkeys(node_ids, base)
    return dict(zip(node_ids, [base + 1] * extra + [base] * (n - extra)))


def find_nodes(
    cluster: ClusterState,
    n_nodes: int,
    cores: int,
    ways: int,
    bw: float,
    beta: float,
    net: float = 0.0,
    locality: bool = False,
) -> Optional[List[int]]:
    """Find ``n_nodes`` nodes that can each host a slice of ``cores``
    cores, ``ways`` dedicated LLC ways, ``bw`` GB/s booked memory
    bandwidth, and ``net`` booked link-utilization fraction.

    Returns the chosen node ids (lowest occupancy metric first) or
    ``None`` when the demand cannot be met anywhere.

    ``locality`` routes every selection through the rack-aware
    :meth:`~repro.sim.cluster.ClusterState.pick_idlest` (fill within one
    rack before crossing the spine, rack tie-break otherwise; DESIGN.md
    §13).  The flag changes *which* qualifying nodes are chosen, never
    whether a demand is satisfiable, so the negative search cache stays
    keyed on the demand alone.  With no active fabric it is inert.
    """
    if n_nodes < 1 or cores < 1:
        raise SchedulingError("n_nodes and cores must be >= 1")

    total_cores = cluster.spec.node.cores

    # Negative search cache: failure here means fewer than n_nodes
    # cluster-wide can host the demand, which placements (pure
    # consumption) cannot undo — so a failed demand tuple keeps failing
    # until the next slice *removal*.  Congested replays retry
    # near-identical demands (same program + process count) across many
    # queued jobs, so this short-circuits whole bucket sweeps.
    failed = None
    if cluster.ctx.enabled:
        epoch = cluster.release_epoch
        cache_epoch, failed = cluster.find_fail
        if cache_epoch != epoch:
            failed = set()
            cluster.find_fail = (epoch, failed)
        key = (n_nodes, cores, ways, bw, net, beta)
        if key in failed:
            cluster.ctx.counters["find_fail_hits"] += 1
            return None

    def fail() -> None:
        if failed is not None:
            failed.add(key)

    # Fast fail on congested clusters: the core dimension alone rules the
    # request out without touching any node.
    if cluster.count_with_free_cores(cores) < n_nodes:
        fail()
        return None

    # Bound per-call work on huge clusters: scanning a few hundred
    # candidates is enough to pick well-placed nodes; exhaustive scans of
    # tens of thousands of part-full nodes would dominate runtime.
    scan_cap = max(256, 4 * n_nodes)

    def qualify(ids: Sequence[int], bucket: int) -> List[int]:
        return cluster.scan_hosts(ids, cores, ways, bw, net, scan_cap,
                                  bucket=bucket)

    nodes = cluster.nodes

    # One key function for the whole call (both pick() invocations)
    # instead of rebuilding a closure per selection.
    def metric_key(nid: int):
        return (nodes[nid].occupancy_metric(beta), nid)

    def pick(ids: List[int]) -> List[int]:
        if len(ids) <= n_nodes:
            return ids
        if locality:
            # Same columnar selection in both cache modes: locality
            # changes placement decisions, and decisions must stay
            # cache-mode independent (the golden-trace contract).
            return cluster.pick_idlest(ids, n_nodes, beta,
                                       rack_aware=True)
        if cluster.ctx.enabled:
            return cluster.pick_idlest(ids, n_nodes, beta)
        return heapq.nsmallest(n_nodes, ids, key=metric_key)

    buckets = cluster.free_core_buckets()
    # Idlest groups first: selecting the emptiest compatible group keeps
    # per-group consumption even and preserves fuller groups for compact
    # jobs.
    eligible = sorted((f for f in buckets if f >= cores and buckets[f]),
                      reverse=True)
    for free in eligible:
        ids = buckets[free]
        if free == total_cores:
            # Fully idle nodes are interchangeable (identical state,
            # metric 0): check one representative instead of scanning
            # thousands on large clusters.  Under locality they are
            # *not* interchangeable — their racks differ — so the pick
            # goes through the rack-aware selection instead.
            if len(ids) >= n_nodes:
                it = iter(ids)
                if cluster.node(next(iter(ids))).can_host(cores, ways, bw, net):
                    if locality:
                        return pick(list(ids))
                    return [nid for nid, _ in zip(it, range(n_nodes))]
            continue
        qualified = qualify(ids, free)
        if len(qualified) >= n_nodes:
            return pick(qualified)
    # No single group suffices: search the whole cluster.  (The fully
    # idle group, if any, was necessarily smaller than n_nodes here, so
    # this pool stays small.)
    whole: List[int] = []
    for free in eligible:
        ids = buckets[free]
        if free == total_cores:
            if ids and cluster.node(next(iter(ids))).can_host(cores, ways, bw, net):
                whole.extend(ids)
        else:
            whole.extend(qualify(ids, free))
        if len(whole) >= scan_cap:
            break
    if len(whole) >= n_nodes:
        return pick(whole)
    fail()
    return None

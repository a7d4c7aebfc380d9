"""Runtime cluster state: the node pool with free-core indexing.

The SNS placement algorithm first clusters nodes into groups by idle-core
count and tries to place a job within a single group (Section 4.4); the
same index makes CE's "find N fully idle nodes" O(N) even on the 32K-node
simulated clusters of Fig 20.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import AllocationError, SimulationError
from repro.hardware.topology import ClusterSpec
from repro.perfmodel import batch
from repro.perfmodel.context import PerfContext, resolve_cache_mode
from repro.perfmodel.contention import Slice
from repro.sim.node import NodeColumns, NodeState, SliceColumns

#: Per-node arbitration, stored positionally so signature-shared results
#: fan out to sibling nodes as plain tuple packing: (resident job ids in
#: insertion order, granted GB/s per job, network load, effective LLC
#: ways per job).  Slices per node are few, so consumers look up one
#: job via ``view[0].index(job_id)``.
ArbitrationView = Tuple[
    Tuple[int, ...], Tuple[float, ...], float, Tuple[float, ...]
]

#: Placeholder in arbitration_batch's per-call identity memo for a
#: signature whose representative is queued for the batched solve.
_AWAITING_SOLVE: tuple = ()


@dataclass
class ClusterState:
    """All nodes of the simulated cluster plus a free-core index."""

    spec: ClusterSpec
    partitioned: bool = True
    enforce_bw: bool = False
    share_residual: bool = True
    #: Perf-model context: the cache mode this cluster's caches follow
    #: and the run's counters its scans and arbitration write.
    #: Injected by the owning :class:`~repro.sim.runtime.Simulation`
    #: (construction-injection rule, DESIGN.md §9); a standalone
    #: ClusterState gets a private context with the default cache mode.
    ctx: Optional[PerfContext] = None
    nodes: List[NodeState] = field(init=False)
    # Buckets are insertion-ordered id->None maps: O(1) add/remove with a
    # deterministic iteration order, and — unlike sorting — no O(G log G)
    # cost per query on clusters with tens of thousands of idle nodes.
    _by_free_cores: Dict[int, Dict[int, None]] = field(init=False)
    # Signature-keyed arbitration views shared *across* nodes: wide-job
    # placement produces thousands of nodes with identical resident mixes,
    # and a node whose slice set changed can be refilled from a sibling's
    # result without rebuilding Slice objects.  Values store grants/ways
    # positionally plus the program refs for stale-id defence.
    _view_cache: Dict[tuple, tuple] = field(init=False)
    #: Monotone counter bumped on every slice removal.  Placements only
    #: consume capacity, so between two removals a job that failed to
    #: place cannot become feasible — the schedulers' pending-queue skip
    #: index keys off this epoch (DESIGN.md §7).  Node *recovery* also
    #: bumps it: a rejoining node adds capacity exactly like a release.
    release_epoch: int = field(default=0, init=False)
    #: Monotone counter bumped on every node failure or recovery; the
    #: schedulers fold it into their skip-index feasibility check so
    #: records straddling an availability change are never honored.
    availability_version: int = field(default=0, init=False)
    #: Down-node mask (insertion-ordered for deterministic iteration).
    #: Down nodes are absent from the free-core index, so every
    #: placement path (bucket scans, idle queries) skips them natively.
    _down: Dict[int, None] = field(init=False)

    def __post_init__(self) -> None:
        if self.ctx is None:
            self.ctx = PerfContext(enabled=resolve_cache_mode())
        # The struct-of-arrays node hot state (DESIGN.md §7): the columns
        # ARE the per-node free capacities — every NodeState below is a
        # thin view over its slot, and the vectorized paths (scan_hosts,
        # pick_idlest, place_slices/remove_slices) read and write the
        # contiguous arrays directly.  There is no shadow copy to flush.
        n = self.spec.num_nodes
        self.columns = NodeColumns(n, self.spec.node)
        # Per-slice SoA plane (job id / procs / ways / bw / net per dense
        # resident slot), kept in lockstep with the node columns.
        self.scols = SliceColumns(n, self.spec.node.cores)
        self.nodes = [
            NodeState(
                node_id=i,
                spec=self.spec.node,
                partitioned=self.partitioned,
                enforce_bw=self.enforce_bw,
                share_residual=self.share_residual,
                columns=self.columns,
                scols=self.scols,
                slot=i,
            )
            for i in range(n)
        ]
        self._by_free_cores = {
            self.spec.node.cores: dict.fromkeys(range(n))
        }
        self._view_cache = {}
        self._down = {}
        # Negative placement-search cache: demand tuples find_nodes
        # failed for at the given release epoch (see find_nodes —
        # placements only consume, so a failure holds until a removal).
        self.find_fail: Tuple[int, set] = (-1, set())
        # Per-bucket node-id arrays for scan_hosts, invalidated when a
        # node enters or leaves the bucket.
        self._bucket_arrays: Dict[int, np.ndarray] = {}
        # Per-bucket scan-result memo: demand tuple -> qualifying ids.
        # A node's capacity columns cannot change without its free-core
        # count changing (every slice consumes cores), so unchanged
        # bucket membership implies unchanged member state — the memo is
        # evicted exactly where the id-array cache is, plus the
        # defensive zero-proc edges where columns move but buckets
        # don't.
        self._scan_cache: Dict[int, Dict[tuple, List[int]]] = {}
        # Leaf-spine fabric (DESIGN.md §13).  ``_fabric`` is non-None
        # only when the spec attaches a FabricSpec that can ever bind on
        # this cluster (oversubscribed AND multi-rack) — every fabric
        # code path below gates on it, which is what keeps flat fabrics
        # bit-identical to no fabric at all.
        fabric = self.spec.fabric
        if fabric is not None and fabric.active_for(n):
            self._fabric = fabric
            self._rack_of = fabric.rack_map(n)
            self._num_racks = fabric.num_racks(n)
            self._rack_pop = fabric.rack_population(n)
            # Derived link aggregates over booked_cross: canonical
            # left-to-right sums in node-id order (rack order for the
            # spine), recomputed by _refresh_links after every cross
            # mutation — never maintained incrementally, because the
            # incremental add order (placement order) is not the
            # canonical node-id order the exact-float contract re-sums
            # in.
            self.booked_tor = np.zeros(self._num_racks, dtype=np.float64)
            self.booked_spine = 0.0
        else:
            self._fabric = None
            self._rack_of = None
            self._num_racks = 0
            self._rack_pop = None
            self.booked_tor = None
            self.booked_spine = 0.0

    # -- mutation: the only writers of the columns and the index -------------

    def place_slices(self, node_ids: Sequence[int], job_id: int, program,
                     procs_per_node: Dict[int, int], ways: int, bw: float,
                     n_nodes: int, net: float = 0.0) -> None:
        """Install one job's slices on all its nodes in one batch.

        Each node gets ``procs_per_node[nid]`` cores, ``ways`` dedicated
        ways (partitioned ledgers only), and ``bw`` GB/s plus ``net``
        link fraction booked.  The capacity columns mutate through
        fancy-indexed array ops and the per-node Python bookkeeping
        shares one resident record and one signature item per distinct
        process count (an even split has at most two).  Validation runs
        *before* any mutation, so a raised :class:`AllocationError`
        leaves the cluster untouched — no caller-side rollback.
        """
        count = len(node_ids)
        if count == 0:
            raise AllocationError("placement names no nodes")
        if net < 0:
            raise AllocationError("network booking must be non-negative")
        nodes = self.nodes
        cols = self.columns
        arr = np.fromiter(node_ids, dtype=np.int64, count=count)
        if count > 1 and len(set(node_ids)) != count:
            raise AllocationError("placement names a node twice")
        old_free_arr = cols.free_cores[arr]
        old_free = old_free_arr.tolist()
        procs_list = [procs_per_node[nid] for nid in node_ids]
        procs_arr = np.asarray(procs_list, dtype=np.int64)
        partitioned = self.partitioned
        # Vectorized validation: the whole-batch numpy checks decide
        # pass/fail; only a failing batch walks the nodes again to name
        # the first offending node.
        bad = bool(np.any(procs_arr > old_free_arr))
        if partitioned:
            if ways < cols.min_ways:
                raise AllocationError(
                    f"job {job_id} requested {ways} ways; minimum is "
                    f"{cols.min_ways} (associativity floor)"
                )
            bad = bad \
                or bool(np.any(cols.parts[arr] >= cols.max_partitions)) \
                or bool(np.any(cols.free_ways[arr] < ways))
        sc = self.scols
        # Duplicate-resident check, pruned to occupied nodes through the
        # n_res column (an idle node cannot already host this job).
        slot_pos = cols.n_res[arr]  # fancy index: an owned copy
        busy = slot_pos > 0
        busy_any = bool(busy.any())
        if busy_any:
            dup = (sc.job[arr] == job_id).any(axis=1)
            if bool(dup.any()):
                raise AllocationError(
                    f"job {job_id} already on node "
                    f"{node_ids[int(np.argmax(dup))]}"
                )
        if bad:
            free_ways = cols.free_ways[arr].tolist()
            parts = cols.parts[arr].tolist()
            for i, nid in enumerate(node_ids):
                if procs_list[i] > old_free[i]:
                    raise AllocationError(
                        f"node {nid} has {old_free[i]} free cores; "
                        f"{procs_list[i]} requested"
                    )
                if partitioned:
                    if parts[i] >= cols.max_partitions:
                        raise AllocationError(
                            f"node already has {parts[i]} CAT partitions "
                            f"(max {cols.max_partitions})"
                        )
                    if ways > free_ways[i]:
                        raise AllocationError(
                            f"job {job_id} requested {ways} ways; "
                            f"only {free_ways[i]} free"
                        )
            raise AllocationError("place_slices validation out of sync")
        # -- slice columns: append at each node's dense free slot ----------
        if int(slot_pos.max()) >= sc.slots:
            sc.grow()
        sc.job[arr, slot_pos] = job_id
        sc.procs[arr, slot_pos] = procs_arr
        if partitioned:
            sc.ways[arr, slot_pos] = ways
        if bw != 0.0:
            sc.bw[arr, slot_pos] = bw
        if net != 0.0:
            sc.net[arr, slot_pos] = net
        entry = sc.meta.get(job_id)
        sc.meta[job_id] = (
            program, n_nodes, count if entry is None else entry[2] + count
        )
        # -- node columns (single fancy-indexed op per array) --------------
        cols.free_cores[arr] -= procs_arr
        cols.n_res[arr] += 1
        if partitioned:
            cols.free_ways[arr] -= ways
            cols.parts[arr] += 1
        # Booked totals grow by one elementwise IEEE addition (identical
        # to extending the scalar left-to-right sum); a 0.0 booking is a
        # bitwise no-op and skips the float work entirely.
        if bw != 0.0:
            cols.booked_bw[arr] += bw
            cols.bw_eps[arr] = (cols.peak_bw - cols.booked_bw[arr]) + 1e-9
        if net != 0.0:
            cols.booked_net[arr] += net
            cols.net_eps[arr] = (1.0 - cols.booked_net[arr]) + 1e-9
            if self._fabric is not None:
                self._book_cross(arr, slot_pos, net, count)
        # -- per-node bookkeeping ------------------------------------------
        sig_ways = ways if partitioned else 0
        sig_bw = bw if self.enforce_bw else -1.0
        pid = id(program)
        # One fully-assembled arb signature per distinct process count
        # (an even split has at most two) for nodes that were empty
        # before this batch.  Cohort nodes sharing the signature *object*
        # lets arbitration_batch collapse them through an identity memo
        # without rebuilding or re-hashing per node.
        shared: Dict[int, tuple] = {}
        for procs in set(procs_list):
            key = (
                ((pid, procs, n_nodes, sig_ways, sig_bw),),
                cols.llc_ways - ways if partitioned else procs,
            )
            shared[procs] = (key, (job_id,), (program,))
        # Signatures write through the object column as fancy-indexed
        # bulk ops — no interpreted loop body per slice.  A previously-
        # empty node's signature is the cohort's shared one (sole
        # resident, full residual ways / sole core user); an occupied
        # node with a current signature *extends* it in place of a lazy
        # rebuild (the new resident appends at the end of insertion
        # order, and the residual shifts by exactly this slice's
        # ways/cores) — both match what arb_signature() would rebuild
        # from scratch.
        sigs = sc.sig
        cell = np.empty(1, dtype=object)
        if not busy_any:
            if len(shared) == 1:
                cell[0] = shared[procs_list[0]]
                sigs[arr] = cell
            else:
                # One masked write per distinct process count (an even
                # split has at most two); a bare tuple would coerce to a
                # 2-D object array, hence the 1-cell wrapper.
                for p, s in shared.items():
                    cell = np.empty(1, dtype=object)
                    cell[0] = s
                    sigs[arr[procs_arr == p]] = cell
        else:
            for nid, p, b in zip(node_ids, procs_list, busy.tolist()):
                if not b:
                    sigs[nid] = shared[p]
                    continue
                sig = sigs[nid]
                if sig is None:
                    continue
                okey = sig[0]
                sigs[nid] = (
                    (
                        okey[0] + shared[p][0][0],
                        okey[1] - ways if partitioned else okey[1] + p,
                    ),
                    sig[1] + (job_id,),
                    sig[2] + (program,),
                )
        self._reindex_batch(node_ids, old_free, procs_list, -1)

    def remove_slices(self, node_ids: Sequence[int], job_id: int) -> None:
        """Remove one job's slices from all its nodes in one batch, with
        a single ``release_epoch`` bump (the epoch is only ever compared
        for equality, so one bump per batch is as good as one per
        node).  Booked float columns are re-summed from the
        remaining residents in insertion order (float subtraction does
        not invert addition); a node left empty resets to exact zeros.

        Per-node bookkeeping runs as C-level bulk dict/attribute ops;
        only nodes that keep residents with live bookings walk a Python
        re-sum.  One job books identical ways/bandwidth/network on every
        node of its placement (``place_slices`` takes them as scalars),
        so one slice decides the batch-wide re-sum and ways values.
        """
        count = len(node_ids)
        cols = self.columns
        sc = self.scols
        arr = np.fromiter(node_ids, dtype=np.int64, count=count)
        old_free = cols.free_cores[arr].tolist()
        partitioned = self.partitioned
        # Nodes keeping residents (before the decrement below) need
        # their booked sums rebuilt and their signatures shrunk;
        # emptied nodes reset to zeros / None.  When NO node keeps a
        # resident (the dominant shape: a job leaving nodes it had to
        # itself), density pins its sole slice at slot 0 on every node
        # — no mask/argmax/compaction machinery needed at all.
        kept = cols.n_res[arr] > 1
        kept_any = bool(kept.any())
        if not kept_any:
            jcol = sc.job[arr, 0]
            bad = jcol != job_id
            if bool(bad.any()):
                # Validation precedes any mutation, so the raise leaves
                # the cluster untouched (an idle node's slot 0 holds the
                # -1 sentinel).
                raise AllocationError(
                    f"job {job_id} not on node "
                    f"{node_ids[int(np.argmax(bad))]}"
                )
            pos = None
            procs_arr = sc.procs[arr, 0]
            p0 = 0
            kept_pos: List[int] = []
        else:
            jrows = sc.job[arr]  # (count, slots+1) owned copies
            mask = jrows == job_id
            hit = mask.any(axis=1)
            if not bool(hit.all()):
                raise AllocationError(
                    f"job {job_id} not on node "
                    f"{node_ids[int(np.argmin(hit))]}"
                )
            pos = mask.argmax(axis=1)
            procs_arr = sc.procs[arr, pos]
            p0 = int(pos[0])
            kept_pos = np.nonzero(kept)[0].tolist()
        procs_list = procs_arr.tolist()
        if partitioned:
            ways = int(sc.ways[arr[0], p0])
        resum = float(sc.bw[arr[0], p0]) != 0.0 \
            or float(sc.net[arr[0], p0]) != 0.0
        # Cross bookings are uniformly zero (single-rack placement) or
        # uniformly nonzero (every node of a multi-rack placement sends
        # *some* traffic off-rack) across one job's slices, so one slice
        # decides the batch-wide handling — read before compaction
        # overwrites the slot.  has_cross implies resum (cross is a
        # share of a nonzero net booking).
        fabric_active = self._fabric is not None
        has_cross = fabric_active and float(sc.cross[arr[0], p0]) != 0.0
        # A surviving node with a current signature *shrinks* it in
        # place of a lazy rebuild: dropping position ``idx`` from each
        # parallel tuple and shifting the residual by exactly this
        # slice's ways/cores matches what arb_signature() would rebuild
        # from the surviving residents in insertion order.
        sigs = sc.sig
        shrunk: List[Optional[tuple]] = []
        for i in kept_pos:
            sig = sigs[node_ids[i]]
            if sig is None:
                shrunk.append(None)
                continue
            jids = sig[1]
            idx = jids.index(job_id)
            okey = sig[0]
            items = okey[0]
            shrunk.append((
                (
                    items[:idx] + items[idx + 1:],
                    okey[1] + ways if partitioned
                    else okey[1] - procs_list[i],
                ),
                jids[:idx] + jids[idx + 1:],
                sig[2][:idx] + sig[2][idx + 1:],
            ))
        sigs[arr] = None
        for i, sig in zip(kept_pos, shrunk):
            if sig is not None:
                sigs[node_ids[i]] = sig
        cols.free_cores[arr] += procs_arr
        cols.n_res[arr] -= 1
        if partitioned:
            cols.free_ways[arr] += ways
            cols.parts[arr] -= 1
        # -- slice columns: compact the survivors left ---------------------
        # An emptied node's sole slice sits at slot 0 (density), so it
        # only needs constant fills there.  A surviving node shifts its
        # survivors left through one fancy gather per column: column
        # index ``j`` reads source ``j`` before the removed position and
        # ``j + 1`` after it, with the permanently-empty pad column
        # supplying the trailing sentinel/zero fill — dense insertion
        # order is preserved with no argsort and no per-row Python.
        if pos is None:
            sc.job[arr, 0] = -1
            sc.procs[arr, 0] = 0
            if partitioned:
                sc.ways[arr, 0] = 0
            if resum:
                sc.bw[arr, 0] = 0.0
                sc.net[arr, 0] = 0.0
                if has_cross:
                    sc.cross[arr, 0] = 0.0
        else:
            empt_rows = arr[~kept]
            sh_rows = arr[kept]
            if empt_rows.size:
                sc.job[empt_rows, 0] = -1
                sc.procs[empt_rows, 0] = 0
                if partitioned:
                    sc.ways[empt_rows, 0] = 0
                if resum:
                    sc.bw[empt_rows, 0] = 0.0
                    sc.net[empt_rows, 0] = 0.0
                    if has_cross:
                        sc.cross[empt_rows, 0] = 0.0
            if sh_rows.size:
                # Shift survivors left of each removed position via one
                # contiguous slice copy per (distinct position, column):
                # batches remove one job, whose slot index takes very few
                # distinct values across its nodes, so this beats a
                # full-width fancy gather.  The advanced-index read on
                # the right copies before the write lands, and the pad
                # column supplies the trailing sentinel/zero fill.
                width = sc.slots
                kpos = pos[kept]
                for p in np.unique(kpos).tolist():
                    rows = sh_rows[kpos == p]
                    sc.job[rows, p:width] = sc.job[rows, p + 1:width + 1]
                    sc.procs[rows, p:width] = \
                        sc.procs[rows, p + 1:width + 1]
                    if partitioned:
                        sc.ways[rows, p:width] = \
                            sc.ways[rows, p + 1:width + 1]
                    sc.bw[rows, p:width] = sc.bw[rows, p + 1:width + 1]
                    sc.net[rows, p:width] = sc.net[rows, p + 1:width + 1]
                    if fabric_active:
                        # Survivors to the right of the removed slot may
                        # carry cross bookings of *other* jobs even when
                        # the removed job itself had none, so the shift
                        # gates on fabric presence, not has_cross.
                        sc.cross[rows, p:width] = \
                            sc.cross[rows, p + 1:width + 1]
        entry = sc.meta[job_id]
        if entry[2] <= count:
            del sc.meta[job_id]
        else:
            sc.meta[job_id] = (entry[0], entry[1], entry[2] - count)
        if resum:
            # Dropping an exact-0.0 booking preserves every partial sum
            # bitwise, so the columns only need re-summing when the
            # removed slices actually booked something.
            empt = arr if pos is None else arr[~kept]
            if empt.size:
                cols.booked_bw[empt] = 0.0
                cols.bw_eps[empt] = (cols.peak_bw - 0.0) + 1e-9
                cols.booked_net[empt] = 0.0
                cols.net_eps[empt] = (1.0 - 0.0) + 1e-9
                if has_cross:
                    cols.booked_cross[empt] = 0.0
            if kept_any and sh_rows.size:
                # Left-to-right column adds over the compacted rows are
                # bit-identical to a Python sum in insertion order: the
                # slots are dense, and adding a trailing exact-0.0 pad
                # is a bitwise no-op for the non-negative bookings.
                sh = sh_rows
                span = int(cols.n_res[sh].max())
                bw_rows = sc.bw[sh, :span]
                net_rows = sc.net[sh, :span]
                tot_bw = bw_rows[:, 0].copy()
                for k in range(1, span):
                    tot_bw += bw_rows[:, k]
                tot_net = net_rows[:, 0].copy()
                for k in range(1, span):
                    tot_net += net_rows[:, k]
                cols.booked_bw[sh] = tot_bw
                cols.bw_eps[sh] = (cols.peak_bw - cols.booked_bw[sh]) \
                    + 1e-9
                cols.booked_net[sh] = tot_net
                cols.net_eps[sh] = (1.0 - cols.booked_net[sh]) + 1e-9
                if has_cross:
                    cross_rows = sc.cross[sh, :span]
                    tot_cross = cross_rows[:, 0].copy()
                    for k in range(1, span):
                        tot_cross += cross_rows[:, k]
                    cols.booked_cross[sh] = tot_cross
            if has_cross:
                # Dropping an exact-0.0 cross booking preserves the ToR
                # partial sums bitwise, so the aggregates only need
                # re-deriving when the removed slices crossed racks.
                self._refresh_links(np.unique(self._rack_of[arr]))
        self._reindex_batch(node_ids, old_free, procs_list, +1)
        self.release_epoch += 1

    def _reindex_batch(self, node_ids: Sequence[int], old_free: List[int],
                       procs_list: List[int], sign: int) -> None:
        """Move a batch of nodes between free-core buckets after their
        core columns changed by ``sign * procs``.

        A uniform-process batch moves as one bulk group per source
        bucket; mixed process counts fall back to per-node moves.  The
        per-bucket membership *order* downstream scans observe is
        identical either way: within each destination the nodes arrive
        in batch order, exactly as per-node moves would insert them.
        """
        buckets = self._by_free_cores
        arrays = self._bucket_arrays
        scache = self._scan_cache
        # Nodes move in bulk, one contiguous *run* of equal process
        # counts at a time (an even split yields one run; the base+1 /
        # base split of an uneven one yields two).  Runs execute in
        # batch order and each run's members arrive at their
        # destinations in batch order, so every destination bucket
        # receives members in overall batch order — exactly the
        # membership order a per-node loop would produce.  Within one
        # run the shared delta makes the old → new bucket map
        # injective, so no destination interleaves two of its groups;
        # deletions never reorder a bucket's surviving members.
        count = len(procs_list)
        start = 0
        while start < count:
            procs = procs_list[start]
            stop = start + 1
            while stop < count and procs_list[stop] == procs:
                stop += 1
            if not procs:
                # Zero-proc runs leave their buckets alone but may have
                # changed other capacity columns: evict their scan memos.
                if self._scan_cache:
                    for old in set(old_free[start:stop]):
                        self._scan_cache.pop(old, None)
                start = stop
                continue
            delta = sign * procs
            run_nodes = node_ids[start:stop]
            run_old = old_free[start:stop]
            if min(run_old) == max(run_old):
                groups: Iterable = ((run_old[0], run_nodes),)
            else:
                by_old: Dict[int, list] = {}
                for nid, old in zip(run_nodes, run_old):
                    members = by_old.get(old)
                    if members is None:
                        by_old[old] = [nid]
                    else:
                        members.append(nid)
                groups = by_old.items()
            for old, members in groups:
                new = old + delta
                try:
                    bucket = buckets[old]
                    deque(map(bucket.__delitem__, members), maxlen=0)
                except KeyError:
                    raise SimulationError("free-core index out of sync") \
                        from None
                if not bucket:
                    del buckets[old]
                new_bucket = buckets.get(new)
                if new_bucket is None:
                    buckets[new] = dict.fromkeys(members)
                else:
                    new_bucket.update(dict.fromkeys(members))
                if arrays:
                    arrays.pop(old, None)
                    arrays.pop(new, None)
                if scache:
                    scache.pop(old, None)
                    scache.pop(new, None)
            start = stop

    # -- fabric link accounting (DESIGN.md §13) ---------------------------------

    def _book_cross(self, arr: np.ndarray, slot_pos: np.ndarray,
                    net: float, count: int) -> None:
        """Install the cross-rack share of one placement's ``net``
        booking on the slice/node cross columns and re-derive the link
        aggregates.  Called only with an active fabric and ``net != 0``.

        A job spread over ``count`` nodes keeps traffic to rack-mates
        in-rack: a node sharing its rack with ``same`` of the job's
        nodes sends the fraction ``(count - same) / (count - 1)`` of its
        booking through the ToR uplink (uniform all-to-all peers, one
        fixed operation order so the invariant replay can reproduce the
        value exactly).  A single-rack placement books no cross traffic
        at all — compact placements are free on the fabric, which is
        exactly the asymmetry the locality-aware spreading exploits.
        """
        if count <= 1:
            return
        racks = self._rack_of[arr]
        uniq, inv, cnt = np.unique(racks, return_inverse=True,
                                   return_counts=True)
        if uniq.size == 1:
            return
        cross = net * (count - cnt[inv]) / (count - 1)
        sc = self.scols
        cols = self.columns
        sc.cross[arr, slot_pos] = cross
        # Same discipline as booked_net: one elementwise IEEE addition
        # extends the per-node left-to-right sum exactly.
        cols.booked_cross[arr] += cross
        self._refresh_links(uniq)

    def _refresh_links(self, racks: np.ndarray) -> None:
        """Re-derive ``booked_tor`` for the given racks and
        ``booked_spine``, as canonical left-to-right sums over
        ``booked_cross`` in node-id order (rack order for the spine) —
        the exact-float contract :meth:`verify_columns` checks.  Racks
        whose members' cross bookings did not change keep their stored
        sums (those are unchanged by construction)."""
        cols = self.columns
        tor = self.booked_tor
        rack_size = self._fabric.rack_size
        n = len(self.nodes)
        booked = cols.booked_cross
        for r in racks.tolist():
            lo = r * rack_size
            tor[r] = sum(booked[lo:min(lo + rack_size, n)].tolist())
        # 0.0 + x is a bitwise no-op for the non-negative per-rack sums,
        # so Python's sum() IS the left-to-right rack-order total.
        self.booked_spine = sum(tor.tolist())

    # -- availability (fault injection, DESIGN.md §8) ---------------------------

    def fail_node(self, node_id: int) -> None:
        """Take a node down.  The caller (the runtime's ``NODE_FAIL``
        handler) must have evicted every resident slice first; the node
        is then pulled out of the free-core index so no placement path
        can see it until :meth:`recover_node`."""
        if node_id in self._down:
            raise SimulationError(f"node {node_id} is already down")
        node = self.nodes[node_id]
        if int(self.columns.n_res[node_id]):
            raise SimulationError(
                f"cannot fail node {node_id} with resident slices"
            )
        free = node.free_cores
        buckets = self._by_free_cores
        try:
            bucket = buckets[free]
            del bucket[node_id]
        except KeyError:
            raise SimulationError("free-core index out of sync") from None
        if not bucket:
            del buckets[free]
        self._bucket_arrays.pop(free, None)
        self._scan_cache.pop(free, None)
        self._down[node_id] = None
        self.availability_version += 1

    def recover_node(self, node_id: int) -> None:
        """Bring a failed node back, empty.  Recovery adds capacity the
        way a slice removal does, so it bumps ``release_epoch`` (the
        find_nodes negative cache and the skip index must both forget
        failures recorded against the smaller cluster)."""
        if node_id not in self._down:
            raise SimulationError(f"node {node_id} is not down")
        del self._down[node_id]
        free = self.nodes[node_id].free_cores
        bucket = self._by_free_cores.get(free)
        if bucket is None:
            self._by_free_cores[free] = {node_id: None}
        else:
            bucket[node_id] = None
        self._bucket_arrays.pop(free, None)
        self._scan_cache.pop(free, None)
        self.availability_version += 1
        self.release_epoch += 1

    def is_down(self, node_id: int) -> bool:
        return node_id in self._down

    def down_nodes(self) -> List[int]:
        """Currently failed node ids (deterministic insertion order)."""
        return list(self._down)

    # -- queries -----------------------------------------------------------------

    def node(self, node_id: int) -> NodeState:
        return self.nodes[node_id]

    def idle_nodes(self) -> List[int]:
        """Fully idle node ids (deterministic insertion order)."""
        return list(self._by_free_cores.get(self.spec.node.cores, ()))

    def idle_count(self) -> int:
        """Number of fully idle nodes (O(1))."""
        return len(self._by_free_cores.get(self.spec.node.cores, ()))

    def first_idle(self, n: int) -> List[int]:
        """The first ``n`` fully idle node ids in insertion order,
        without copying the whole idle bucket (== ``idle_nodes()[:n]``)."""
        bucket = self._by_free_cores.get(self.spec.node.cores, ())
        return list(islice(bucket, n))

    def scan_hosts(self, ids: Iterable[int], cores: int, ways: int,
                   bw: float, net: float, limit: int,
                   bucket: int = None) -> List[int]:
        """First ``limit`` node ids (scanned in the given order) that
        satisfy :meth:`NodeState.can_host` with these demands.

        Vectorized over the capacity columns (the authoritative node
        state — nothing to flush first); condition-for-condition
        identical to calling ``can_host`` per node.  When the caller
        scans a whole free-core bucket it passes the bucket key so the
        id array is reused until the bucket's membership changes.
        """
        arr = None
        memo = None
        dkey = None
        # The ToR headroom mask below depends on link state that changes
        # *without* the bucket's membership changing (a placement on the
        # rack's other members books the shared uplink), so net-booking
        # scans under an active fabric bypass the per-bucket scan memo —
        # its unchanged-membership-implies-unchanged-state premise does
        # not hold for them.
        fabric_net = net > 0.0 and self._fabric is not None
        if bucket is not None and self.ctx.enabled and not fabric_net:
            # Scan-result memo: congested replays retry near-identical
            # demands against unchanged buckets; a hit skips the whole
            # column scan.  The copy keeps callers from aliasing the
            # cached list.
            memo = self._scan_cache.get(bucket)
            dkey = (cores, ways, bw, net, limit)
            if memo is not None:
                hit = memo.get(dkey)
                if hit is not None:
                    self.ctx.counters["scan_cache_hits"] += 1
                    return list(hit)
            arr = self._bucket_arrays.get(bucket)
        if arr is None:
            count = len(ids) if hasattr(ids, "__len__") else -1
            arr = np.fromiter(ids, dtype=np.int64, count=count)
            if bucket is not None:
                self._bucket_arrays[bucket] = arr
        if arr.size == 0:
            return []
        cols = self.columns
        if self.partitioned and (
            ways < cols.min_ways or ways > cols.llc_ways
        ):
            return []  # can_allocate() rejects on every node
        # Zero-demand dimensions are foregone conclusions (the epsilon
        # columns are strictly positive by construction), so their
        # elementwise compares are skipped outright; ``bucket >= cores``
        # makes the core comparison one too (bucket invariant: every
        # member has exactly ``bucket`` free cores).
        check_cores = not (bucket is not None and bucket >= cores)
        if not (check_cores or bw > 0.0 or self.partitioned or net > 0.0):
            hits = arr[:limit] if arr.size > limit else arr
            self.ctx.counters["nodes_scanned"] += int(hits.size)
            out = hits.tolist()
            if dkey is not None:
                self._scan_cache.setdefault(bucket, {})[dkey] = out
                return list(out)
            return out
        # Per-rack ToR headroom: a node can take a net-booking slice
        # only if its rack's uplink could still carry the booking even
        # in the worst case (all of it crossing the spine).  This is a
        # conservative *feasibility* mask — the eventual placement may
        # book less (or no) cross traffic if it lands compactly.
        tor_ok = None
        if fabric_net:
            cap = self._rack_pop / self._fabric.oversubscription
            tor_ok = self.booked_tor + net <= cap + 1e-9
        # Chunked scan with early stop: callers only consume the first
        # ``limit`` qualifiers (in id-array order, which chunking
        # preserves), so wide buckets stop as soon as the quota is
        # filled instead of testing every member.
        counters = self.ctx.counters
        out: List[int] = []
        size = int(arr.size)
        chunk = max(512, limit)
        start = 0
        while start < size and len(out) < limit:
            sub = arr[start:start + chunk]
            start += chunk
            counters["nodes_scanned"] += int(sub.size)
            ok = None
            if check_cores:
                ok = cols.free_cores[sub] >= cores
            if bw > 0.0:
                m = cols.bw_eps[sub] >= bw
                ok = m if ok is None else ok & m
            if self.partitioned:
                m = cols.free_ways[sub] >= ways
                ok = m if ok is None else ok & m
                ok &= cols.parts[sub] < cols.max_partitions
            if net > 0.0:
                m = cols.net_eps[sub] >= net
                ok = m if ok is None else ok & m
                if tor_ok is not None:
                    ok &= tor_ok[self._rack_of[sub]]
            out.extend(sub[ok].tolist())
        if len(out) > limit:
            out = out[:limit]
        if dkey is not None:
            self._scan_cache.setdefault(bucket, {})[dkey] = out
            return list(out)
        return out

    def pick_idlest(self, ids: List[int], n: int, beta: float,
                    rack_aware: bool = False) -> List[int]:
        """The ``n`` ids with the lowest occupancy metric (ties broken by
        node id), metric-ascending — matches ``heapq.nsmallest`` over
        :meth:`NodeState.occupancy_metric` bit-for-bit: the metric is
        evaluated with elementwise numpy arithmetic in the same operation
        order as the scalar expression, and the used-core / allocated-way
        operands are exact integer complements of the columnar free
        counts.

        ``rack_aware`` (locality-aware SNS under an active fabric)
        changes selection in two steps.  If any single rack contributes
        at least ``n`` candidates, the pick is confined to the rack of
        the idlest such candidate — the job fills within one rack and
        crosses no spine link at all.  Otherwise a tie-break is inserted
        *between* metric and node id: among equal-metric candidates,
        prefer nodes whose rack contributes more candidates, so the
        picked set concentrates in as few racks as possible.  With no
        active fabric the flag is inert — selection order is exactly
        the flat one.
        """
        cols = self.columns
        arr = np.fromiter(ids, dtype=np.int64, count=len(ids))
        co = (cols.cores - cols.free_cores[arr]) / cols.cores
        bo = np.minimum(1.0, cols.booked_bw[arr] / cols.peak_bw)
        if self.partitioned:
            wo = (cols.llc_ways - cols.free_ways[arr]) / cols.llc_ways
            metric = co + bo + beta * wo
        else:
            # Unpartitioned ledgers never allocate ways: Wo is 0.0 and
            # adding beta * 0.0 is a bitwise no-op on the scalar path.
            metric = co + bo
        if rack_aware and self._fabric is not None:
            racks = self._rack_of[arr]
            pop = np.bincount(racks, minlength=self._num_racks)[racks]
            full = pop >= n
            if full.any():
                # Fill within one rack before crossing the spine:
                # confine the pick to the rack of the idlest candidate
                # that has enough rack-mates in this candidate set.
                by_metric = np.lexsort((arr, metric))
                best = by_metric[full[by_metric]][0]
                keep = racks == racks[best]
                arr = arr[keep]
                metric = metric[keep]
                order = np.lexsort((arr, metric))[:n]
            else:
                order = np.lexsort((arr, -pop, metric))[:n]
        else:
            order = np.lexsort((arr, metric))[:n]
        return arr[order].tolist()

    def groups_by_free_cores(self, min_free: int = 1) -> Dict[int, List[int]]:
        """Node groups keyed by free-core count (>= ``min_free`` only),
        each group in deterministic insertion order."""
        return {
            free: list(ids)
            for free, ids in self._by_free_cores.items()
            if free >= min_free and ids
        }

    def free_core_buckets(self) -> Dict[int, Dict[int, None]]:
        """Read-only view of the internal free-core index: bucket key is
        the free-core count, values are insertion-ordered node-id maps.
        Callers must not mutate it; it exists so hot placement paths can
        scan buckets without copying them."""
        return self._by_free_cores

    def nodes_with_free_cores(self, min_free: int) -> List[int]:
        """All node ids with at least ``min_free`` free cores."""
        out: List[int] = []
        for free, ids in self._by_free_cores.items():
            if free >= min_free:
                out.extend(ids)
        return out

    def count_with_free_cores(self, min_free: int) -> int:
        return sum(
            len(ids) for free, ids in self._by_free_cores.items()
            if free >= min_free
        )

    def max_free_cores(self) -> int:
        """Largest free-core count of any *up* node (O(buckets)).  This
        is the cluster headroom watermark the schedulers' skip index
        compares failed jobs against."""
        # Every up node sits in exactly one bucket and empty buckets are
        # deleted; the key set is only empty when every node is down.
        return max(self._by_free_cores, default=0)

    def total_free_cores(self) -> int:
        # O(buckets): every node sits in exactly one free-core bucket.
        return sum(
            free * len(ids) for free, ids in self._by_free_cores.items()
        )

    def arbitration_batch(
        self, node_ids: Iterable[int]
    ) -> Dict[int, ArbitrationView]:
        """Arbitration views for many nodes at once.

        Cross-node view-cache hits are materialized first; the residual
        misses — at most one representative per distinct slice
        signature — are solved in a single call to the columnar batched
        kernel (:func:`repro.perfmodel.batch.arbitrate_nodes`) and fanned
        back out to every node sharing the signature.  Bit-identical to
        the reference :meth:`_arbitrate` per node, which is what runs
        with the perf-model caches disabled.
        """
        if not self.ctx.enabled:
            return {nid: self._arbitrate(nid) for nid in node_ids}
        view_hits = 0
        views: Dict[int, ArbitrationView] = {}
        pending: List[Tuple[int, tuple, Tuple[int, ...]]] = []
        solve_keys: Dict[tuple, int] = {}
        solve_nodes: List[int] = []
        nodes = self.nodes
        view_cache = self._view_cache
        # Sibling nodes (same signature AND same resident job ids — the
        # slices of one wide job) receive the *same* view tuple, so
        # downstream per-node loops can dedupe work on view identity.
        packed: Dict[tuple, ArbitrationView] = {}
        # Cohort fast path: nodes placed in one place_slices batch share
        # their signature *object* (key, jids, and programs together), so
        # after the first sibling resolves, the rest collapse to a single
        # id() lookup — no re-hash of the key tuple, no program-identity
        # re-check.  Signature objects are pinned by the sig column's
        # refs for the duration of the call, so ids cannot be recycled.
        by_key_id: Dict[int, ArbitrationView] = {}
        # Scalar numpy reads (`n_res[nid]`, sig cell) cost ~a microsecond
        # each and this loop runs for every refreshed node; one
        # fancy-index gather per column amortizes them to C speed, then
        # the loop touches plain Python lists.
        node_list = (node_ids if isinstance(node_ids, (list, tuple))
                     else list(node_ids))
        count = len(node_list)
        if not count:
            return views
        idx = np.fromiter(node_list, dtype=np.int64, count=count)
        nres_list = self.columns.n_res[idx].tolist()
        sig_list = self.scols.sig[idx].tolist()
        for i, nid in enumerate(node_list):
            if not nres_list[i]:
                views[nid] = ((), (), 0.0, ())
                continue
            sig = sig_list[i]
            if sig is None:
                key, jids, programs = nodes[nid].arb_signature()
            else:
                key, jids, programs = sig
            full = by_key_id.get(id(key))
            if full is not None:
                if full is _AWAITING_SOLVE:
                    pending.append((nid, key, jids))
                else:
                    view_hits += 1
                    views[nid] = full
                continue
            entry = view_cache.get(key)
            if entry is not None and all(
                p is q for p, q in zip(entry[0], programs)
            ):
                view_hits += 1
                pk = (id(entry), jids)
                full = packed.get(pk)
                if full is None:
                    full = (jids, entry[1], entry[2], entry[3])
                    packed[pk] = full
                views[nid] = full
                by_key_id[id(key)] = full
                continue
            pending.append((nid, key, jids))
            by_key_id[id(key)] = _AWAITING_SOLVE
            if key not in solve_keys:
                solve_keys[key] = len(solve_nodes)
                solve_nodes.append(nid)
        counters = self.ctx.counters
        counters["view_cache_hits"] += view_hits
        if pending:
            tables = [nodes[nid].slices() for nid in solve_nodes]
            solved = batch.arbitrate_nodes(self.ctx, self.spec.node, tables)
            counters["arb_nodes_solved"] += len(solve_nodes)
            fresh: Dict[tuple, tuple] = {}
            for (key, index) in solve_keys.items():
                slices = tables[index]
                grants, net_load = solved[index]
                fresh[key] = (
                    tuple(s.program for s in slices),
                    tuple(grants[s.job_id] for s in slices),
                    net_load,
                    tuple(s.effective_ways for s in slices),
                )
            if len(view_cache) >= self.ctx.max_entries:
                view_cache.clear()
            view_cache.update(fresh)
            for nid, key, jids in pending:
                full = by_key_id[id(key)]
                if full is _AWAITING_SOLVE:
                    entry = fresh[key]
                    pk = (id(entry), jids)
                    full = packed.get(pk)
                    if full is None:
                        full = (jids, entry[1], entry[2], entry[3])
                        packed[pk] = full
                    by_key_id[id(key)] = full
                views[nid] = full
        return views

    def solo_conditions(
        self, job_id: int, program, placement
    ) -> Optional[Dict[tuple, int]]:
        """Condition-key counts for a job that is the **sole resident**
        of every node it occupies, computed once per distinct process
        count with no per-node view materialization; ``None`` when any
        of its nodes hosts a co-runner.

        A sole resident's arbitration inputs are fully determined by its
        own slice (all residual ways, no bandwidth competition), so the
        whole placement collapses to at most two solver calls (an even
        split has at most two process counts) through the same batched
        kernel — and usually zero, because the signature-keyed view
        cache already holds the result from an earlier job of the same
        shape.  The returned dict maps the runtime's condition key
        ``(procs, effective_ways, grant, net_load)`` to its node count,
        bit-identical to deriving the key per node from
        :meth:`arbitration_batch` views.
        """
        node_ids = placement.node_ids
        arr = np.fromiter(node_ids, dtype=np.int64, count=len(node_ids))
        if not bool((self.columns.n_res[arr] == 1).all()):
            return None
        key_counts: Dict[tuple, int] = {}
        for procs, count in Counter(
            placement.procs_per_node.values()
        ).items():
            key_counts[
                self.solo_condition_key(job_id, program, placement, procs)
            ] = count
        return key_counts

    def solo_condition_key(
        self, job_id: int, program, placement, procs: int
    ) -> tuple:
        """Runtime condition key ``(procs, effective_ways, grant,
        net_load)`` for the job as the **sole resident** of a node
        carrying ``procs`` of its processes — view-cache backed, no
        per-node view materialization.

        A sole resident's arbitration inputs are fully determined by its
        own slice (all residual ways, no bandwidth competition), so the
        key collapses to one view-cache lookup under the same signature
        key single-resident nodes produce — and on a miss, one solve
        through the same batched kernel, bit-identical to deriving the
        key from an :meth:`arbitration_batch` view.
        """
        spec = self.spec.node
        partitioned = self.partitioned
        ways = placement.dedicated_ways
        bw = placement.booked_bw
        n_nodes = len(placement.node_ids)
        key = (
            ((id(program), procs, n_nodes,
              ways if partitioned else 0,
              bw if self.enforce_bw else -1.0),),
            spec.llc_ways - ways if partitioned else procs,
        )
        view_cache = self._view_cache
        entry = view_cache.get(key)
        if entry is not None and entry[0][0] is program:
            self.ctx.counters["view_cache_hits"] += 1
            return (procs, entry[3][0], entry[1][0], entry[2])
        # Same expressions as NodeState.effective_ways for a sole
        # resident (n_res == 1, so the node's used cores equal the
        # slice's procs).
        if partitioned:
            if self.share_residual:
                eff = ways + (spec.llc_ways - ways) / 1
            else:
                eff = float(ways)
        else:
            eff = spec.llc_ways * (procs / procs)
        slc = Slice(
            job_id=job_id,
            program=program,
            procs=procs,
            effective_ways=eff,
            n_nodes=n_nodes,
            bw_cap=bw if self.enforce_bw and bw > 0 else None,
        )
        grants, net_load = batch.arbitrate_nodes(
            self.ctx, spec, [[slc]]
        )[0]
        grant = grants[job_id]
        self.ctx.counters["arb_nodes_solved"] += 1
        if len(view_cache) >= self.ctx.max_entries:
            view_cache.clear()
        view_cache[key] = ((program,), (grant,), net_load, (eff,))
        return (procs, eff, grant, net_load)

    def _arbitrate(self, node_id: int) -> ArbitrationView:
        """Reference arbitration of one node from its Slice objects."""
        node = self.nodes[node_id]
        if node.is_idle:
            return (), (), 0.0, ()
        slices = node.slices()
        grants, net_load = self.ctx.node_arbitration(node.spec, slices)
        return (
            tuple(s.job_id for s in slices),
            tuple(grants[s.job_id] for s in slices),
            net_load,
            tuple(s.effective_ways for s in slices),
        )

    def verify_index(self) -> None:
        """Invariant check used by tests and defensive assertions."""
        seen: Set[int] = set()
        for free, ids in self._by_free_cores.items():
            for nid in ids:
                if self.nodes[nid].free_cores != free:
                    raise SimulationError(
                        f"node {nid} indexed at {free} free cores but has "
                        f"{self.nodes[nid].free_cores}"
                    )
                if nid in seen:
                    raise SimulationError(f"node {nid} indexed twice")
                if nid in self._down:
                    raise SimulationError(f"down node {nid} is indexed")
                seen.add(nid)
        if len(seen) != len(self.nodes) - len(self._down):
            raise SimulationError(
                "free-core index does not cover all up nodes"
            )

    def verify_columns(self) -> None:
        """Check every node-column slot against values recomputed from
        the slice columns — *exact* equality, including the float
        bookings (the columns are contractually bit-identical to a
        left-to-right re-sum in slice insertion order).  Also enforces
        the slice-plane structural contract: occupied slots are dense
        in insertion order, empty slots hold the ``-1`` sentinel and
        exact zeros, and the per-job meta refcounts match the installed
        slice counts.  Test / defensive-assertion hook, like
        :meth:`verify_index`."""
        cols = self.columns
        sc = self.scols
        spec = self.spec.node
        refcounts: Dict[int, int] = {}
        for node in self.nodes:
            nid = node.node_id
            jrow = sc.job[nid].tolist()
            occupied = [k for k, j in enumerate(jrow) if j >= 0]
            m = len(occupied)
            if occupied != list(range(m)):
                raise SimulationError(
                    f"node {nid}: slice slots not dense: {jrow}"
                )
            for jid in jrow[:m]:
                if jid not in sc.meta:
                    raise SimulationError(
                        f"node {nid}: job {jid} has no meta entry"
                    )
                refcounts[jid] = refcounts.get(jid, 0) + 1
            if len(set(jrow[:m])) != m:
                raise SimulationError(
                    f"node {nid}: duplicate resident job: {jrow[:m]}"
                )
            for name, fill in (("procs", 0), ("ways", 0),
                               ("bw", 0.0), ("net", 0.0), ("cross", 0.0)):
                tail = getattr(sc, name)[nid, m:]
                if bool((tail != fill).any()):
                    raise SimulationError(
                        f"node {nid}: {name} column has non-zero "
                        f"empty slots"
                    )
            if int(cols.n_res[nid]) != m:
                raise SimulationError(
                    f"node {nid}: n_res column {int(cols.n_res[nid])} "
                    f"!= {m}"
                )
            used = sum(sc.procs[nid, :m].tolist())
            if int(cols.free_cores[nid]) != spec.cores - used:
                raise SimulationError(
                    f"node {nid}: free_cores column "
                    f"{int(cols.free_cores[nid])} != {spec.cores - used}"
                )
            allocated = sum(sc.ways[nid, :m].tolist())
            if int(cols.free_ways[nid]) != spec.llc_ways - allocated:
                raise SimulationError(
                    f"node {nid}: free_ways column "
                    f"{int(cols.free_ways[nid])} != "
                    f"{spec.llc_ways - allocated}"
                )
            parts = m if self.partitioned else 0
            if int(cols.parts[nid]) != parts:
                raise SimulationError(
                    f"node {nid}: parts column {int(cols.parts[nid])} "
                    f"!= {parts}"
                )
            booked_bw = sum(sc.bw[nid, :m].tolist())
            booked_net = sum(sc.net[nid, :m].tolist())
            if float(cols.booked_bw[nid]) != booked_bw:
                raise SimulationError(
                    f"node {nid}: booked_bw column "
                    f"{float(cols.booked_bw[nid])!r} != {booked_bw!r}"
                )
            if float(cols.booked_net[nid]) != booked_net:
                raise SimulationError(
                    f"node {nid}: booked_net column "
                    f"{float(cols.booked_net[nid])!r} != {booked_net!r}"
                )
            if float(cols.bw_eps[nid]) != (spec.peak_bw - booked_bw) + 1e-9:
                raise SimulationError(
                    f"node {nid}: bw_eps column out of sync"
                )
            if float(cols.net_eps[nid]) != (1.0 - booked_net) + 1e-9:
                raise SimulationError(
                    f"node {nid}: net_eps column out of sync"
                )
            booked_cross = sum(sc.cross[nid, :m].tolist())
            if float(cols.booked_cross[nid]) != booked_cross:
                raise SimulationError(
                    f"node {nid}: booked_cross column "
                    f"{float(cols.booked_cross[nid])!r} != {booked_cross!r}"
                )
        if self._fabric is not None:
            num_nodes = len(self.nodes)
            for r in range(self._num_racks):
                lo, hi = self._fabric.rack_span(r, num_nodes)
                expect = sum(cols.booked_cross[lo:hi].tolist())
                if float(self.booked_tor[r]) != expect:
                    raise SimulationError(
                        f"rack {r}: booked_tor "
                        f"{float(self.booked_tor[r])!r} != {expect!r}"
                    )
            expect = sum(self.booked_tor.tolist())
            if self.booked_spine != expect:
                raise SimulationError(
                    f"booked_spine {self.booked_spine!r} != {expect!r}"
                )
        for jid, n_slices in refcounts.items():
            if sc.meta[jid][2] != n_slices:
                raise SimulationError(
                    f"job {jid}: meta refcount {sc.meta[jid][2]} != "
                    f"{n_slices} installed slices"
                )
        for jid in sc.meta:
            if jid not in refcounts:
                raise SimulationError(
                    f"job {jid}: meta entry with no installed slices"
                )

    def gauge_columns(self) -> np.ndarray:
        """Live per-node gauge matrix: rows are
        :data:`repro.obs.timeseries.CHANNELS` (free cores, booked GB/s,
        allocated dedicated ways, resident job count), columns are
        nodes.  Down nodes read zero on every channel.  This is the
        ground truth the trace-replayed series
        (:func:`repro.obs.timeseries.timeseries_from_trace`) is
        cross-validated against.

        Unpartitioned ledgers never allocate ways, so the alloc_ways row
        is identically zero for CE/CS — matching the way-capacity law in
        :mod:`repro.obs.invariants`.
        """
        cols = self.columns
        n = len(self.nodes)
        gauges = np.empty((4, n), dtype=np.float64)
        gauges[0] = cols.free_cores
        gauges[1] = cols.booked_bw
        if self.partitioned:
            gauges[2] = cols.llc_ways - cols.free_ways
        else:
            gauges[2] = 0.0
        gauges[3] = cols.n_res
        for nid in self._down:
            gauges[:, nid] = 0.0
        return gauges

    def resident_jobs_on(self, node_ids: Iterable[int]) -> Set[int]:
        """Union of job ids resident on the given nodes (one gather over
        the slice-id columns; empty slots hold ``-1``)."""
        count = len(node_ids) if hasattr(node_ids, "__len__") else -1
        arr = np.fromiter(node_ids, dtype=np.int64, count=count)
        if not arr.size:
            return set()
        rows = self.scols.job[arr]
        return set(rows[rows >= 0].tolist())

    def shared_resident_jobs(self, node_ids: Sequence[int]) -> Set[int]:
        """Job ids resident on those of the given nodes that host **more
        than one** resident.  The resident-count column prunes the scan,
        so a fully exclusive placement gathers zero slice rows.

        This is the co-runner discovery set of the runtime's settle
        paths: a node with a single resident has nobody whose speed the
        triggering job's own event could change (the sole resident *is*
        the triggering job on every settle call site).
        """
        arr = np.fromiter(node_ids, dtype=np.int64, count=len(node_ids))
        multi = arr[self.columns.n_res[arr] > 1]
        if not multi.size:
            return set()
        rows = self.scols.job[multi]
        return set(rows[rows >= 0].tolist())

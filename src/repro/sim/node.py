"""Runtime state of one compute node.

Tracks free cores, CAT way allocations, booked bandwidth, and the set of
resident job slices.  A node can run in *partitioned* mode (SNS: each job
has dedicated ways; residual ways shared equally) or *unpartitioned* mode
(CE/CS: no CAT actuation — the LLC is a free-for-all and capacity divides
in proportion to each job's process count, which models the steady state
of an unmanaged shared cache under equal per-core pressure).

The *hot* per-node quantities — free cores, free ways, partition count,
booked bandwidth/network and the scan-ready epsilon complements — live in
:class:`NodeColumns`, a struct-of-arrays pool shared by every node of a
cluster.  Per-slice state — resident job id, process count, dedicated
ways, booked bandwidth/network per slice — lives in :class:`SliceColumns`,
a second struct-of-arrays pool kept in lockstep with the node columns
(DESIGN.md §7).  The columns are the **source of truth**: a
:class:`NodeState` is a thin view over its column slot with *no* per-slice
Python objects of its own, and the cluster's vectorized paths
(``scan_hosts``, ``pick_idlest``, ``place_slices``/``remove_slices``,
arbitration view assembly) read and write the contiguous arrays
directly; the batched ``place_slices``/``remove_slices`` pair is the
only path that mutates them.

Float discipline (bit-identity with re-summed bookkeeping, enforced by
``tests/test_soa_columns.py``): booked bandwidth/network columns are
*added to* on placement — extending a left-to-right Python ``sum()`` by
one term is the same single IEEE addition — and *re-summed over the
remaining residents in insertion order* on removal, because float
subtraction does not invert addition.  Slice slots are kept dense in
insertion order, so slot order *is* insertion order and the re-sum can
run as left-to-right column adds (trailing empty slots hold exact ``0.0``
and ``x + 0.0`` is a bitwise no-op for the non-negative bookings).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.apps.program import ProgramSpec
from repro.errors import AllocationError
from repro.hardware.node_spec import NodeSpec
from repro.perfmodel.contention import Slice


class NodeColumns:
    """Struct-of-arrays hot state for a pool of nodes.

    One slot per node; every array is the authoritative value (no
    mirror to flush).  The float columns keep both the booked totals and
    the *epsilon complements* — free capacity plus ``can_host``'s 1e-9
    comparison slack — so capacity scans compare raw demands against a
    contiguous array without a per-scan vector add.  Spec-derived
    constants are denormalized here so batched mutation paths never walk
    property chains.
    """

    __slots__ = (
        "spec", "cores", "llc_ways", "peak_bw", "min_ways",
        "max_partitions", "free_cores", "free_ways", "parts", "n_res",
        "booked_bw", "booked_net", "booked_cross", "bw_eps", "net_eps",
    )

    def __init__(self, n: int, spec: NodeSpec) -> None:
        self.spec = spec
        self.cores = spec.cores
        self.llc_ways = spec.llc_ways
        self.peak_bw = spec.peak_bw
        self.min_ways = spec.cache.min_ways
        self.max_partitions = spec.cache.max_partitions
        self.free_cores = np.full(n, spec.cores, dtype=np.int64)
        self.free_ways = np.full(n, spec.llc_ways, dtype=np.int64)
        self.parts = np.zeros(n, dtype=np.int64)
        self.n_res = np.zeros(n, dtype=np.int64)
        self.booked_bw = np.zeros(n, dtype=np.float64)
        self.booked_net = np.zeros(n, dtype=np.float64)
        # Booked *cross-rack* link fraction per node (the part of
        # ``booked_net`` that leaves the rack through the ToR uplink);
        # mutated only when the cluster's fabric is active, with the same
        # float discipline as booked_net.  The per-rack ToR and spine
        # aggregates are derived from this column (ClusterState).
        self.booked_cross = np.zeros(n, dtype=np.float64)
        self.bw_eps = np.full(n, spec.peak_bw + 1e-9, dtype=np.float64)
        self.net_eps = np.full(n, 1.0 + 1e-9, dtype=np.float64)


class SliceColumns:
    """Struct-of-arrays per-slice state for a pool of nodes.

    Row = node slot, column = resident slot.  Resident slots are kept
    **dense in insertion order**: a placement appends at slot
    ``n_res``, a removal compacts the survivors left — so slot order is
    resident insertion order, which is the order every order-sensitive
    consumer (arbitration signatures, booked-float re-sums) observes.

    Empty slots hold the sentinel ``-1`` in ``job`` and exact zeros in
    every other column, which makes left-to-right column adds over a
    whole slot span bit-identical to summing only the occupied slots.

    Per-*job* (not per-slice) attributes that cannot be columnized — the
    program reference and the placement width — live in ``meta``:
    ``job_id -> (program, n_nodes, slice_refcount)``.  The refcount
    tracks how many slices of the job are installed anywhere in the
    pool.
    """

    __slots__ = ("slots", "job", "procs", "ways", "bw", "net", "cross",
                 "meta", "sig")

    def __init__(self, n: int, slots: int) -> None:
        # One extra physical column beyond the logical slot count: a
        # permanently-empty pad the batched removal's shift-gather reads
        # (index ``slots``) so survivors compact left in one fancy
        # gather with no bounds special-casing.
        self.slots = slots
        self.job = np.full((n, slots + 1), -1, dtype=np.int64)
        self.procs = np.zeros((n, slots + 1), dtype=np.int64)
        self.ways = np.zeros((n, slots + 1), dtype=np.int64)
        self.bw = np.zeros((n, slots + 1), dtype=np.float64)
        self.net = np.zeros((n, slots + 1), dtype=np.float64)
        # Cross-rack share of ``net`` per slice (zero unless the
        # cluster's fabric is active and the slice's job spans racks).
        self.cross = np.zeros((n, slots + 1), dtype=np.float64)
        self.meta: Dict[int, Tuple[ProgramSpec, int, int]] = {}
        # Per-node cached arbitration signature (see NodeState.
        # arb_signature) as an object column, so place_slices/remove_slices
        # install or drop whole cohorts of signatures with single
        # fancy-indexed writes instead of per-node attribute loops.
        self.sig = np.full(n, None, dtype=object)

    def grow(self) -> None:
        """Double the resident-slot capacity (defensive: a node hosts at
        most ``cores`` slices when every slice pins ≥1 process, but
        nothing in ``place_slices`` forbids zero-process slices)."""
        n = self.job.shape[0]
        new = self.slots * 2
        for name, fill in (("job", -1), ("procs", 0), ("ways", 0),
                           ("bw", 0.0), ("net", 0.0), ("cross", 0.0)):
            old = getattr(self, name)
            wide = np.full((n, new + 1), fill, dtype=old.dtype)
            wide[:, :old.shape[1]] = old
            setattr(self, name, wide)
        self.slots = new


class NodeState:
    """Read-only per-node view over one column slot of a
    :class:`~repro.sim.cluster.ClusterState`, which builds one per node
    and is the only writer of the columns behind it.

    ``enforce_bw`` models Intel-MBA-style hard bandwidth partitioning:
    a resident job's DRAM draw is clipped to its booking.  The paper's
    testbed lacked MBA (Section 4.4), so the default is estimation-only.
    ``share_residual`` controls the residual-way giveaway of Section 4.4;
    disabling it is an ablation knob.
    """

    __slots__ = (
        "node_id", "spec", "partitioned", "enforce_bw", "share_residual",
        "columns", "scols", "_slot",
    )

    def __init__(self, node_id: int, spec: NodeSpec, partitioned: bool,
                 enforce_bw: bool, share_residual: bool,
                 columns: NodeColumns, scols: SliceColumns,
                 slot: int) -> None:
        self.node_id = node_id
        self.spec = spec
        self.partitioned = partitioned
        self.enforce_bw = enforce_bw
        self.share_residual = share_residual
        self.columns = columns
        self.scols = scols
        self._slot = slot
        # The cached arbitration signature (see arb_signature) lives in
        # ``scols.sig[slot]``.  ClusterState.place_slices installs a
        # shared pre-assembled signature on previously-empty nodes and
        # place_slices/remove_slices extend or shrink a current one in
        # place, so hot-path nodes never pay the lazy rebuild from the
        # slice columns.

    # -- capacity queries ----------------------------------------------------

    @property
    def used_cores(self) -> int:
        return self.spec.cores - int(self.columns.free_cores[self._slot])

    @property
    def free_cores(self) -> int:
        return int(self.columns.free_cores[self._slot])

    @property
    def free_ways(self) -> int:
        return int(self.columns.free_ways[self._slot])

    @property
    def cat_partitions(self) -> int:
        """Number of active CAT partitions on this node."""
        return int(self.columns.parts[self._slot])

    @property
    def booked_bw(self) -> float:
        """Total bandwidth (GB/s) booked by the scheduler on this node."""
        return float(self.columns.booked_bw[self._slot])

    @property
    def free_bw(self) -> float:
        return self.spec.peak_bw - self.booked_bw

    @property
    def booked_net(self) -> float:
        """Total booked link-utilization fraction (network dimension,
        the paper's Section 3.3 extension)."""
        return float(self.columns.booked_net[self._slot])

    @property
    def free_net(self) -> float:
        return 1.0 - self.booked_net

    @property
    def is_idle(self) -> bool:
        return not int(self.columns.n_res[self._slot])

    @property
    def resident_job_ids(self) -> List[int]:
        slot = self._slot
        n = int(self.columns.n_res[slot])
        return self.scols.job[slot, :n].tolist()

    def _resident_slot(self, job_id: int) -> int:
        """Dense slot index of a resident job, or ``-1``."""
        slot = self._slot
        n = int(self.columns.n_res[slot])
        row = self.scols.job[slot, :n].tolist()
        try:
            return row.index(job_id)
        except ValueError:
            return -1

    def occupancy_metric(self, beta: float) -> float:
        """The paper's node-selection metric ``Co + Bo + beta * Wo``
        (occupied fractions of cores, bandwidth, and LLC ways)."""
        cols = self.columns
        slot = self._slot
        spec = self.spec
        co = (spec.cores - int(cols.free_cores[slot])) / spec.cores
        bo = min(1.0, float(cols.booked_bw[slot]) / spec.peak_bw)
        wo = (spec.llc_ways - int(cols.free_ways[slot])) / spec.llc_ways
        return co + bo + beta * wo

    # -- allocation ----------------------------------------------------------

    def can_host(self, procs: int, ways: int, bw: float,
                 net: float = 0.0) -> bool:
        """Whether a new slice (``procs`` cores, ``ways`` dedicated ways,
        ``bw`` GB/s and ``net`` link fraction booked) fits right now."""
        cols = self.columns
        slot = self._slot
        if procs > cols.free_cores[slot]:
            return False
        if self.partitioned and (
            ways < cols.min_ways
            or cols.parts[slot] >= cols.max_partitions
            or ways > cols.free_ways[slot]
        ):
            return False
        if bw > cols.bw_eps[slot]:
            return False
        if net > cols.net_eps[slot]:
            return False
        return True

    # -- performance-model views ----------------------------------------------

    def effective_ways(self, job_id: int) -> float:
        """LLC ways the job effectively enjoys on this node.

        Partitioned: dedicated ways plus equal share of residual ways.
        Unpartitioned: proportional share of the whole LLC by process
        count (free-for-all sharing).
        """
        k = self._resident_slot(job_id)
        if k < 0:
            raise AllocationError(f"job {job_id} not on node {self.node_id}")
        cols = self.columns
        sc = self.scols
        slot = self._slot
        if self.partitioned:
            dedicated = int(sc.ways[slot, k])
            if not self.share_residual:
                return float(dedicated)
            bonus = int(cols.free_ways[slot]) / int(cols.parts[slot])
            return dedicated + bonus
        total = self.used_cores
        share = int(sc.procs[slot, k]) / total
        return self.spec.llc_ways * share

    def arb_signature(self) -> Tuple[tuple, Tuple[int, ...], tuple]:
        """``(key, job_ids, programs)`` identifying this node's
        arbitration inputs without materializing Slice objects.

        The key is job-id-independent but *order-preserving* (resident
        insertion order == dense slot order), and together with the
        cluster-wide knobs (``partitioned``/``share_residual``/
        ``enforce_bw``/spec) it fully determines every slice's
        ``effective_ways``, ``bw_cap``, and demand — so two nodes with
        equal keys get bit-identical arbitration results.  Program
        identity is validated by the caller against the returned
        ``programs`` refs (stale-id defence).  The tuple is cached until
        place_slices/remove_slices invalidates it.
        """
        slot = self._slot
        sig = self.scols.sig[slot]
        if sig is None:
            cols = self.columns
            sc = self.scols
            n = int(cols.n_res[slot])
            jobs = sc.job[slot, :n].tolist()
            procs = sc.procs[slot, :n].tolist()
            partitioned = self.partitioned
            if partitioned:
                wlist = sc.ways[slot, :n].tolist()
            if self.enforce_bw:
                bws = sc.bw[slot, :n].tolist()
            meta = sc.meta
            programs = tuple([meta[j][0] for j in jobs])
            items = tuple([
                (
                    id(programs[i]), procs[i], meta[jobs[i]][1],
                    wlist[i] if partitioned else 0,
                    bws[i] if self.enforce_bw else -1.0,
                )
                for i, jid in enumerate(jobs)
            ])
            key = (
                items,
                int(cols.free_ways[slot]) if partitioned
                else self.spec.cores - int(cols.free_cores[slot]),
            )
            sig = (key, tuple(jobs), programs)
            sc.sig[slot] = sig
        return sig

    def slices(self) -> List[Slice]:
        """Current slices for the contention solver."""
        cols = self.columns
        sc = self.scols
        slot = self._slot
        n = int(cols.n_res[slot])
        jobs = sc.job[slot, :n].tolist()
        procs = sc.procs[slot, :n].tolist()
        bws = sc.bw[slot, :n].tolist()
        meta = sc.meta
        enforce_bw = self.enforce_bw
        return [
            Slice(
                job_id=jid,
                program=meta[jid][0],
                procs=procs[i],
                effective_ways=self.effective_ways(jid),
                n_nodes=meta[jid][1],
                bw_cap=(
                    bws[i]
                    if enforce_bw and bws[i] > 0
                    else None
                ),
            )
            for i, jid in enumerate(jobs)
        ]

    def dedicated_ways(self, job_id: int) -> int:
        """Dedicated (CAT-partitioned) ways of a resident job."""
        if not self.partitioned:
            return 0
        k = self._resident_slot(job_id)
        if k < 0:
            return 0
        return int(self.scols.ways[self._slot, k])

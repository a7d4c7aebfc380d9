"""Common scheduler skeleton: the age-based priority queue.

At every scheduling point the queue is scanned in priority order — jobs
that have been passed over more often rank higher (aging), ties break by
submission order.  A job that has reached the configurable age limit
blocks the queue: nothing behind it is scheduled until it fits, which
prevents starvation of resource-demanding jobs (Section 4.4).  The
runtime keeps the queue sorted by :meth:`BaseScheduler.priority_key`
(:class:`repro.sim.pending.PendingQueue`), so a point reads only the
head it scans.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SchedulerConfig
from repro.errors import SchedulingError
from repro.hardware.topology import ClusterSpec
from repro.profiling.database import ProfileDatabase
from repro.sim.cluster import ClusterState
from repro.sim.job import Job, Placement
from repro.sim.pending import PendingQueue
from repro.sim.runtime import Decision


class BaseScheduler(abc.ABC):
    """Shared queue mechanics; policies implement :meth:`_try_place`.

    Every policy constructs through the same signature —
    ``(cluster_spec, config, *, database=None)`` — so harnesses can
    instantiate any registry entry identically.  Policies that do not
    consult profiles (CE, CS) simply ignore the database.
    """

    #: Whether nodes run CAT-partitioned (overridden by SNS).
    partitioned: bool = False

    def __init__(self, cluster_spec: ClusterSpec,
                 config: SchedulerConfig = SchedulerConfig(), *,
                 database: Optional[ProfileDatabase] = None) -> None:
        self.cluster_spec = cluster_spec
        self.config = config
        self.database = database
        # Node-model knobs the runtime forwards to ClusterState; only
        # meaningful for partitioned (SNS-family) policies.
        self.enforce_bw = config.enforce_bw and self.partitioned
        self.share_residual = config.share_residual
        # Fault-injection state (DESIGN.md §8): whether the profile
        # store is reachable, and a counter bumped on every transition
        # so skip-index / demand-cache entries recorded under the other
        # availability state are never honored.
        self.profile_store_up = True
        self._fault_epoch = 0
        # Pending-queue skip index: a job that failed to place is
        # remembered with (release epoch, availability version,
        # feasibility version) and the minimum per-node free cores any
        # of its candidate placements needs.  Placements only consume
        # resources, so while no slice has been removed (same epoch),
        # no node failed or recovered (same availability version) — or
        # while no node has enough free cores for even the job's
        # cheapest shape — re-running _try_place must fail again and is
        # skipped.  See DESIGN.md §7.
        self._skip: Dict[int, Tuple[tuple, Optional[int]]] = {}
        self._skip_cluster: Optional[ClusterState] = None
        self._fail_watermark: Optional[int] = None

    def _feasibility_version(self):
        """Version of policy-internal state that can flip a pending
        job's feasibility without any cluster release (the online
        profile store, profile-store outages).  Skip-index entries
        recorded under a different version are ignored."""
        return self._fault_epoch

    # -- runtime hooks (SchedulerPolicy protocol) -------------------------------

    def on_job_finish(self, job: Job, now: float) -> None:
        """Called by the runtime when a job completes; policies with
        per-run state (backfill reservations, online profiling trials)
        override this."""

    def on_job_evict(self, job: Job, now: float) -> None:
        """Called by the runtime when a node failure evicts a running
        job, after its slices were removed but before it requeues."""

    def set_profile_store_available(self, up: bool) -> None:
        """Fault-plan hook: toggle profile-store reachability.  Bumps
        the feasibility version so stale skip/demand records die; only
        the SNS family changes placement behavior in response."""
        if up != self.profile_store_up:
            self.profile_store_up = up
            self._fault_epoch += 1

    # -- queue mechanics ------------------------------------------------------

    @staticmethod
    def priority_key(job: Job) -> Tuple[int, float, int]:
        """Aged jobs first, then FIFO by submission, then id."""
        return (-job.times_passed_over, job.submit_time, job.job_id)

    def _as_queue(self, pending: Sequence[Job]) -> PendingQueue:
        """The runtime passes its :class:`PendingQueue`; a plain
        sequence (direct calls in tests and tools) is ranked once here."""
        if isinstance(pending, PendingQueue):
            return pending
        return PendingQueue(self.priority_key, pending)

    def schedule_point(
        self, cluster: ClusterState, pending: Sequence[Job], now: float
    ) -> List[Decision]:
        # A single pass in priority order suffices: placements within a
        # point only consume resources, so a job that failed to fit
        # cannot become feasible later in the same point.
        # Long queues (congested trace replays) are truncated to
        # ``max_queue_scan`` entries, like the bounded queue depth of
        # production schedulers.
        pending = self._as_queue(pending)
        queue = pending.head(self.config.max_queue_scan)
        decisions: List[Decision] = []
        skipped: List[Job] = []
        # The cluster carries the simulation's PerfContext (construction
        # injection, DESIGN.md §9); the skip index follows its cache mode
        # and the queue counts into its counters.
        use_skip = cluster.ctx.enabled
        counters = cluster.ctx.counters
        if use_skip:
            if self._skip_cluster is not cluster:
                # A policy object reused against a fresh cluster must not
                # honor records from the previous simulation.
                self._skip.clear()
                self._skip_cluster = cluster
            epoch = cluster.release_epoch
            avail = cluster.availability_version
            max_free = cluster.max_free_cores()
        for job in queue:
            if use_skip:
                record = self._skip.get(job.job_id)
                if record is not None:
                    # The feasibility version is re-read per job: a trial
                    # placement earlier in this same point can bump it.
                    (r_epoch, r_avail, r_version), c_min = record
                    if r_version == self._feasibility_version() \
                            and r_avail == avail and (
                        r_epoch == epoch
                        or (c_min is not None and max_free < c_min)
                    ):
                        # Nothing was released since the recorded failure
                        # (or cluster headroom is still below the job's
                        # cheapest shape): _try_place must fail again.
                        # The job still ages and still blocks the queue,
                        # exactly as the re-run failure would.
                        counters["jobs_skipped"] += 1
                        skipped.append(job)
                        if job.times_passed_over >= self.config.age_limit:
                            break
                        continue
            counters["try_place_calls"] += 1
            self._fail_watermark = None
            decision = self._try_place(cluster, job, now)
            if decision is not None:
                self._skip.pop(job.job_id, None)
                decisions.append(decision)
                continue
            if use_skip:
                self._skip[job.job_id] = (
                    (epoch, avail, self._feasibility_version()),
                    self._fail_watermark,
                )
            skipped.append(job)
            if job.times_passed_over >= self.config.age_limit:
                # Aged job blocks the queue (anti-starvation): nothing
                # behind it is scheduled until it fits.
                break
        pending.pass_over(skipped)
        return decisions

    # -- shared placement helpers -----------------------------------------------

    def _install(
        self,
        cluster: ClusterState,
        job: Job,
        node_ids: Sequence[int],
        procs_per_node: Dict[int, int],
        ways: int,
        bw_per_node: float,
        scale_factor: int,
        net_per_node: float = 0.0,
        meta: Optional[Dict] = None,
    ) -> Decision:
        """Install the job's slices on the chosen nodes and wrap the
        result as a :class:`Decision`.  ``meta`` carries decision
        context for the tracer (candidate-set size, degraded/trial
        flags) and is never read by placement logic."""
        n_nodes = len(node_ids)
        # Batched install: one fancy-indexed write per capacity column
        # instead of a per-node place() walk.  place_slices validates
        # before mutating, so a failed placement leaves the cluster
        # untouched — no rollback loop needed here.
        cluster.place_slices(
            node_ids, job.job_id, job.program, procs_per_node,
            ways, bw_per_node, n_nodes, net=net_per_node,
        )
        placement = Placement(
            node_ids=tuple(node_ids),
            procs_per_node=dict(procs_per_node),
            dedicated_ways=ways,
            booked_bw=bw_per_node,
            booked_net=net_per_node,
        )
        return Decision(job=job, placement=placement,
                        scale_factor=scale_factor, meta=meta)

    def _base_nodes(self, job: Job) -> int:
        """CE minimum footprint of the job."""
        return self.cluster_spec.node.min_nodes_for(job.procs)

    def _valid_footprint(self, job: Job, n_nodes: int) -> bool:
        """Whether the job can run on ``n_nodes`` nodes at all."""
        if n_nodes > self.cluster_spec.num_nodes:
            return False
        if job.program.max_nodes is not None and n_nodes > job.program.max_nodes:
            return False
        if n_nodes > job.procs:
            return False
        from repro.apps.frameworks import framework_of
        from repro.errors import ConfigError
        try:
            framework_of(job.program.framework).validate_footprint(
                job.procs, n_nodes
            )
        except ConfigError:
            return False
        return True

    # -- policy hook ------------------------------------------------------------

    @abc.abstractmethod
    def _try_place(
        self, cluster: ClusterState, job: Job, now: float
    ) -> Optional[Decision]:
        """Try to place one job right now; mutate the cluster and return
        a decision on success, return ``None`` (and leave the cluster
        untouched) when the job does not fit."""

    def _sanity_check_decision(self, decision: Decision) -> None:
        if decision.placement.total_procs != decision.job.procs:
            raise SchedulingError(
                f"placement covers {decision.placement.total_procs} of "
                f"{decision.job.procs} processes"
            )

"""Simulation runtime: event loop + piecewise progress integration.

The runtime owns the cluster state, the pending queue, and the event
queue.  At every *scheduling point* (simulation start, job submission,
job completion — Section 3.1) it hands the cluster and the pending queue
to the scheduling policy, applies the returned placement decisions, and
then re-integrates the progress of every job whose node conditions
changed:

1. settle each affected job's progress at the current speed up to *now*;
2. apply the placement / removal;
3. re-solve bandwidth arbitration on every node any affected job touches;
4. recompute speeds and re-schedule finish events (lazy cancellation).

Because conditions are piecewise-constant between events, the integration
is exact — no time-stepping error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Set

import numpy as np

from repro.config import RetryPolicy, SchedulerConfig, SimConfig
from repro.errors import HardwareModelError, SimulationError
from repro.faults.plan import FaultPlan
from repro.hardware.topology import ClusterSpec
from repro.perfmodel.context import PerfContext, resolve_cache_mode
from repro.perfmodel.execution import (
    NodeConditions,
    job_time,
    reference_time,
    scale_factor_of,
)
from repro.obs.telemetry import TelemetryRecorder
from repro.obs.trace import TraceLevel, Tracer
from repro.sim.cluster import ClusterState
from repro.sim.engine import EventKind, EventQueue
from repro.sim.job import Job, JobState, Placement
from repro.sim.pending import PendingQueue


@dataclass(frozen=True)
class Decision:
    """One placement decision returned by a scheduling policy.

    The policy has already installed the job's slices on the cluster
    (so it can account availability while scheduling); the runtime
    starts the job and re-integrates progress.
    """

    job: Job
    placement: Placement
    scale_factor: int
    #: Optional decision context for the tracer (candidate-set size,
    #: degraded-mode / trial-placement flags); never read by the
    #: runtime's placement logic.
    meta: Optional[dict] = None


class SchedulerPolicy(Protocol):
    """What the runtime needs from a scheduling policy.

    The protocol is the complete contract: the runtime reads every
    member directly (no ``getattr`` probing), and
    :class:`repro.scheduling.base.BaseScheduler` implements all of it —
    the hook methods as no-ops — so concrete policies only override
    what they care about.
    """

    #: Whether nodes run with CAT way partitioning (SNS) or an
    #: unpartitioned shared LLC (CE / CS).
    partitioned: bool
    #: Intel-MBA-style hard bandwidth partitioning (SNS ablation knob).
    enforce_bw: bool
    #: The paper's residual-way giveaway (Section 4.4 ablation knob).
    share_residual: bool

    def priority_key(self, job: Job) -> tuple:
        """The job's queue rank, smaller first; unique per job.  The
        runtime keeps its :class:`PendingQueue` sorted by this key, so
        the key may only change through :meth:`PendingQueue.pass_over`
        (aging), which can only lower it."""
        ...  # pragma: no cover

    def schedule_point(
        self, cluster: ClusterState, pending: PendingQueue, now: float
    ) -> List[Decision]:
        """Place as many pending jobs as the policy wants and return the
        decisions.  The policy installs each placement with
        :meth:`ClusterState.place_slices`, reads the queue's head, and
        ages the jobs it passes over with :meth:`PendingQueue.pass_over`;
        the runtime removes the placed jobs from the queue afterwards."""
        ...  # pragma: no cover

    def on_job_finish(self, job: Job, now: float) -> None:
        """Completion hook: lets policies piggyback profiling on
        finished runs (paper Section 4.4) or retire reservations."""
        ...  # pragma: no cover

    def on_job_evict(self, job: Job, now: float) -> None:
        """Fault hook: a node failure evicted this running job (its
        slices are already gone; it requeues or fails afterwards)."""
        ...  # pragma: no cover

    def set_profile_store_available(self, up: bool) -> None:
        """Fault hook: profile-store outage begins (``False``) or ends
        (``True``); SNS degrades to exclusive placement while down."""
        ...  # pragma: no cover


@dataclass
class SimulationResult:
    """Everything the experiment harnesses read out of a run."""

    jobs: List[Job]
    makespan: float
    telemetry: Optional[TelemetryRecorder]
    #: Number of discrete events processed (benchmark metric).
    events: int = 0
    #: Kernel-counter instrumentation: a copy of the run's
    #: ``PerfContext.counters`` (every name in
    #: :data:`~repro.perfmodel.context.COUNTER_NAMES`) plus ``events``
    #: (see DESIGN.md §7 and §10).
    counters: Dict[str, int] = field(default_factory=dict)
    #: The run's structured tracer (DESIGN.md §10); ``None`` unless the
    #: simulation was constructed with tracing enabled.
    trace: Optional[Tracer] = None
    #: ``False`` for an incremental in-flight view built by
    #: :meth:`SchedulerCore.peek_result` (jobs may still be pending or
    #: running and the makespan is only a lower bound); ``True`` for the
    #: final result of a finished run.
    complete: bool = True

    @property
    def finished_jobs(self) -> List[Job]:
        return [j for j in self.jobs if j.state is JobState.FINISHED]

    @property
    def failed_jobs(self) -> List[Job]:
        """Jobs that exhausted their retry budget under fault injection."""
        return [j for j in self.jobs if j.state is JobState.FAILED]

    def mean_turnaround(self) -> float:
        jobs = self.finished_jobs
        if not jobs:
            raise SimulationError("no finished jobs")
        return sum(j.turnaround_time for j in jobs) / len(jobs)

    def throughput(self) -> float:
        """The paper's throughput metric: reciprocal of the average
        submit-to-finish time (Section 6.2)."""
        return 1.0 / self.mean_turnaround()

    def node_seconds(self) -> float:
        """Total node-seconds held by all jobs."""
        return sum(
            j.run_time * j.placement.n_nodes
            for j in self.finished_jobs
            if j.placement is not None
        )

    # -- fault accounting (DESIGN.md §8) -----------------------------------

    def goodput_node_seconds(self) -> float:
        """Node-seconds spent on runs that completed (the final,
        successful attempt of each finished job)."""
        return self.node_seconds()

    def badput_node_seconds(self) -> float:
        """Node-seconds burned by attempts a node failure killed —
        work the cluster did and then threw away."""
        return sum(j.lost_node_seconds for j in self.jobs)

    def badput_fraction(self) -> float:
        """Badput as a fraction of all node-seconds consumed; 0.0 for a
        fault-free run (and for an empty one)."""
        good = self.goodput_node_seconds()
        bad = self.badput_node_seconds()
        total = good + bad
        return bad / total if total > 0 else 0.0


@dataclass(frozen=True)
class SimSnapshot:
    """O(1) point-in-time view of an in-flight run.

    Built by :meth:`SchedulerCore.snapshot` for the live service's
    ``GET /stats`` endpoint; every field reads a counter the core
    maintains incrementally, so taking a snapshot never scans the job
    table.
    """

    #: Virtual time of the last processed event batch.
    now: float
    #: Jobs the core knows about (batch-loaded plus streamed in).
    submitted: int
    #: Jobs waiting in the scheduler's pending queue.
    pending: int
    #: Jobs currently running.
    running: int
    #: Jobs that completed successfully.
    finished: int
    #: Jobs that exhausted their retry budget (fault injection).
    failed: int
    #: Discrete events processed so far.
    events: int
    #: Virtual timestamp of the next queued live event, or ``None`` when
    #: the queue is drained.
    next_event_time: Optional[float]
    #: Mean submit-to-finish time over finished jobs so far (``None``
    #: until the first completion) — the running form of
    #: :meth:`SimulationResult.mean_turnaround`.
    mean_turnaround: Optional[float]


class SchedulerCore:
    """The scheduling engine behind both entry points: batch replay
    (:class:`Simulation`) and the live service (:mod:`repro.service`).

    The event loop comes in two equivalent shapes:

    - **batch** — construct with the full job list and call
      :meth:`run`, which is exactly ``start(); while step(): pass;
      finalize()``;
    - **streaming** — construct with ``jobs=()``, feed arrivals in with
      :meth:`submit` as they occur, and :meth:`step` one event batch at
      a time.  The service master steps only while
      ``next_event_time() <= watermark`` so virtual time never outruns
      the accepted submissions (wall-clock decoupling, DESIGN.md §12).

    Because the batch loop is the streaming loop run to exhaustion, a
    streamed run that receives the same jobs in the same arrival order
    is bit-identical to the batch run — the service's equivalence
    contract (tests/test_service.py).

    ``fault_plan`` injects node failures, recoveries, and profile-store
    outages (see :mod:`repro.faults`).  An empty or absent plan adds no
    events and the run is bit-identical to a fault-free simulation.
    """

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        policy: SchedulerPolicy,
        jobs: Sequence[Job] = (),
        config: SimConfig = SimConfig(),
        fault_plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        # This simulation's perf-model state, created here and injected
        # into every layer below (cluster, policies reach it through
        # ``cluster.ctx``).  Each Simulation owns a fresh context, so
        # concurrent runs in one process never share kernel caches.
        self.ctx = PerfContext(enabled=resolve_cache_mode(config.perf_caches))
        self.cluster = ClusterState(
            cluster_spec,
            partitioned=policy.partitioned,
            enforce_bw=policy.enforce_bw,
            share_residual=policy.share_residual,
            ctx=self.ctx,
        )
        self.policy = policy
        self.config = config
        self.jobs: Dict[int, Job] = {}
        self.pending = PendingQueue(policy.priority_key)
        self.events = EventQueue()
        # Episode telemetry is lazy (DESIGN.md §10): the recorder is
        # only built at run() start when the config asks for it, so a
        # disabled-observability run allocates no recorder at all.
        self.telemetry: Optional[TelemetryRecorder] = None
        # This run's structured tracer: injected directly (tests,
        # benches) or built from SimConfig.trace — same per-simulation
        # ownership rule as the PerfContext, no globals.  ``None`` means
        # every emission site below is a single ``is None`` check.
        if tracer is None and config.trace is not None:
            tracer = Tracer.from_config(config.trace, cluster_spec.num_nodes)
        self.tracer = tracer
        self._spec = cluster_spec.node
        # Physical leaf-spine link loads (DESIGN.md §13).  The cluster's
        # *booked* link columns answer scheduling feasibility; the perf
        # charge here is physical: every running cross-rack job loads
        # the ToR uplinks and the spine in proportion to its
        # communication fraction, whatever the policy placed it (CE/CS
        # book no network yet still congest the fabric).  ``_cross_jobs``
        # maps job_id -> (net fraction, n_nodes, ((rack, nodes), ...))
        # for running jobs that span racks; ``_route_loads`` holds the
        # derived utilization of the most loaded link on each such job's
        # route, rebuilt by _recompute_fabric_loads whenever the cross
        # set changes.  On a flat fabric ``_fabric`` is None and both
        # dicts stay empty, so every fabric branch below degenerates to
        # one cheap check and the run is bit-identical to pre-fabric
        # behavior.
        n = cluster_spec.num_nodes
        fabric = cluster_spec.fabric
        if fabric is not None and fabric.active_for(n):
            self._fabric = fabric
            self._f_rack_of = fabric.rack_map(n)
            self._f_num_racks = fabric.num_racks(n)
            self._f_rack_pop = [int(p) for p in fabric.rack_population(n)]
        else:
            self._fabric = None
            self._f_rack_of = None
            self._f_num_racks = 0
            self._f_rack_pop = []
        self._cross_jobs: Dict[int, tuple] = {}
        self._route_loads: Dict[int, float] = {}
        self._fabric_dirty = False
        # Incremental liveness state: counting running jobs here keeps
        # _check_liveness O(1) instead of an O(total-jobs) scan at every
        # scheduling point of a 7K-job trace replay.
        self._running = 0
        # Incremental per-job refresh state (caches-enabled fast path):
        # job_id -> (node_id -> condition key, condition key -> count).
        # A condition key (procs, effective ways, granted GB/s, net load)
        # fully determines the job's NodeConditions on that node, and
        # job_time depends only on the *distinct* key set — so a refresh
        # only has to re-derive keys for nodes whose slice set changed
        # (exactly the touched nodes) and can reuse the rest.
        self._job_conds: Dict[int, tuple] = {}
        self._events_processed = 0
        # Count of terminal jobs (finished + failed): with a fault plan
        # the event queue can outlive the workload (recoveries scheduled
        # past the last completion), so the loop stops once every job is
        # accounted for instead of draining pointless fault events.
        self._terminal = 0
        # Running sum of finished jobs' turnaround times, so snapshot()
        # reports the mean without scanning the job table.
        self._turnaround_sum = 0.0
        # Streaming lifecycle flags: start() is idempotent, finalize()
        # closes telemetry exactly once.
        self._started = False
        self._finalized = False
        self.fault_plan = fault_plan
        self._has_faults = bool(fault_plan)
        self._retry = fault_plan.retry if fault_plan is not None \
            else RetryPolicy()
        if fault_plan is not None:
            if fault_plan.max_node_id() >= cluster_spec.num_nodes:
                raise SimulationError(
                    f"fault plan names node {fault_plan.max_node_id()} "
                    f"but the cluster has {cluster_spec.num_nodes} nodes"
                )
            for fault in fault_plan.node_faults:
                self.events.push_fault(
                    fault.fail_at, EventKind.NODE_FAIL, fault.node_id
                )
                if fault.recover_at is not None:
                    self.events.push_fault(
                        fault.recover_at, EventKind.NODE_RECOVER,
                        fault.node_id,
                    )
            for outage in fault_plan.profile_outages:
                self.events.push_fault(outage.start, EventKind.PROFILE_DOWN)
                self.events.push_fault(outage.end, EventKind.PROFILE_UP)
        for job in jobs:
            self.submit(job)

    @classmethod
    def from_policy_name(
        cls,
        policy_name: str,
        cluster_spec: ClusterSpec,
        jobs: Sequence[Job] = (),
        *,
        scheduler_config: SchedulerConfig = SchedulerConfig(),
        sim_config: SimConfig = SimConfig(),
        database=None,
        fault_plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
    ) -> "SchedulerCore":
        """Construct a simulation from a policy *name* (a key of
        :data:`repro.scheduling.POLICIES`).  Every policy is built
        through the uniform ``(cluster_spec, config, *, database=None)``
        signature; unknown names raise ``KeyError``."""
        from repro.scheduling import POLICIES

        policy = POLICIES[policy_name](
            cluster_spec, scheduler_config, database=database
        )
        return cls(cluster_spec, policy, jobs, sim_config,
                   fault_plan=fault_plan, tracer=tracer)

    # ---------------------------------------------------- streaming facade

    def submit(self, job: Job) -> None:
        """Register one job and queue its submission event.

        Valid both before :meth:`start` (batch construction does exactly
        this for every preloaded job) and between :meth:`step` calls
        (streaming mode: the service master feeds arrivals in while the
        loop is live).  The submit time must not lie in the core's past;
        wall-clock-decoupled callers clamp it to a non-decreasing
        watermark before calling.
        """
        if job.job_id in self.jobs:
            raise SimulationError("duplicate job ids")
        self.events.push_submit(job.submit_time, job.job_id)
        self.jobs[job.job_id] = job

    def start(self) -> None:
        """Open the run: allocate episode telemetry and emit the
        tracer's meta record.  Idempotent; :meth:`step` calls it, so
        explicit use is only needed to force allocation early."""
        if self._started:
            return
        self._started = True
        if self.config.telemetry and self.telemetry is None:
            self.telemetry = TelemetryRecorder(len(self.cluster.nodes))
        if self.telemetry is not None:
            for nid in range(len(self.cluster.nodes)):
                self.telemetry.record(nid, 0.0, 0.0)
        if self.tracer is not None:
            fabric = self._fabric
            self.tracer.meta(
                policy=type(self.policy).__name__,
                partitioned=self.policy.partitioned,
                num_nodes=len(self.cluster.nodes),
                cores=self._spec.cores,
                llc_ways=self._spec.llc_ways,
                peak_bw=self._spec.peak_bw,
                n_jobs=len(self.jobs),
                fabric=None if fabric is None else {
                    "rack_size": fabric.rack_size,
                    "oversub": fabric.oversubscription,
                },
            )

    @property
    def now(self) -> float:
        """Current virtual time (the clock of the last processed event)."""
        return self.events.now

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next live queued event, or ``None`` when the
        queue is drained — the watermark comparison point for
        wall-clock-decoupled stepping."""
        return self.events.peek_time()

    def step(self) -> bool:
        """Process one event batch; ``False`` when nothing remains.

        Events at an identical timestamp (trace submit bursts, finish
        storms) are drained into one batch: each event still gets its
        own scheduling point (intermediate cluster occupancy matters to
        placement and aging), but settling, speed refresh, telemetry,
        and the liveness check run once per batch instead of once per
        event.  Submits coalesce freely; a *finish* coalesces only while
        its job is untouched by the batch so far — the lazily-cancelling
        queue judges staleness against pre-batch versions, and a batch
        member's finish must wait for the batch's refresh to re-version
        it (see :meth:`EventQueue.pop_finish_at`).  The coalesced and
        per-event loops are bit-identical; with
        ``SimConfig(perf_caches=False)`` the per-event reference loop
        runs.

        Returns ``False`` without popping when the workload is complete
        under a fault plan (leftover fault events cannot change anything
        and would only inflate the makespan) — a later :meth:`submit`
        reopens the workload and stepping resumes.
        """
        self.start()
        if (
            self._has_faults
            and self.ctx.counters["event_batches"] > 0
            and self._terminal == len(self.jobs)
        ):
            return False
        event = self.events.pop()
        if event is None:
            return False
        tracer = self.tracer
        trace_full = tracer is not None \
            and tracer.level >= TraceLevel.FULL
        coalesce = self.ctx.enabled
        now = self.events.now
        if now > self.config.max_sim_time:
            raise SimulationError("simulation exceeded max_sim_time")
        events = [event]
        affected: Set[int] = set()
        touched: Set[int] = set()
        ev = event
        while True:
            if ev.kind is EventKind.JOB_SUBMIT:
                job = self.jobs[ev.job_id]
                if tracer is not None:
                    tracer.submit(now, job)
                self.pending.push(job)
            elif ev.kind is EventKind.JOB_FINISH:
                self._finish_job(self.jobs[ev.job_id], now,
                                 affected, touched)
            elif ev.kind is EventKind.NODE_FAIL:
                self._handle_node_fail(ev.job_id, now,
                                       affected, touched)
            elif ev.kind is EventKind.NODE_RECOVER:
                self._handle_node_recover(ev.job_id)
                if tracer is not None:
                    tracer.node_recover(now, ev.job_id)
            else:  # PROFILE_DOWN / PROFILE_UP
                self._handle_profile_event(ev.kind)
                if tracer is not None:
                    tracer.profile_store(
                        now, ev.kind is EventKind.PROFILE_UP
                    )
            self._scheduling_point(now, affected, touched)
            if not coalesce:
                break
            # Finishes drain first (EventKind.JOB_FINISH orders ahead
            # of every other kind at equal timestamps), but only for
            # jobs this batch has not touched: an affected job's
            # finish must be re-judged after the batch's refresh
            # re-versions it.  If such a finish heads the queue the
            # batch ENDS — falling through to the submit drain would
            # process submits the unbatched loop orders *after* the
            # re-pushed finish.
            nxt, blocked = self.events.pop_finish_at(now, affected)
            if nxt is None:
                if blocked:
                    break
                nxt = self.events.pop_submit_at(now)
                if nxt is None:
                    break
            events.append(nxt)
            ev = nxt
        self._events_processed += len(events)
        self.ctx.counters["event_batches"] += 1
        self.ctx.counters["events_coalesced"] += len(events) - 1
        if trace_full:
            tracer.batch(now, [e.kind.label for e in events])
        self._refresh(affected, touched, now)
        self._check_liveness()
        return True

    def snapshot(self) -> SimSnapshot:
        """O(1) view of the in-flight run (``GET /stats``)."""
        finished = self._terminal - self.ctx.counters["jobs_failed"]
        return SimSnapshot(
            now=self.events.now,
            submitted=len(self.jobs),
            pending=len(self.pending),
            running=self._running,
            finished=finished,
            failed=self.ctx.counters["jobs_failed"],
            events=self._events_processed,
            next_event_time=self.events.peek_time(),
            mean_turnaround=(
                self._turnaround_sum / finished if finished else None
            ),
        )

    def peek_result(self) -> SimulationResult:
        """Incremental :class:`SimulationResult` over in-flight state
        (``complete=False``): same accessors as the final result, but
        jobs may still be pending or running, the makespan is the
        current virtual time, and telemetry is left open."""
        return SimulationResult(
            jobs=list(self.jobs.values()),
            makespan=self.events.now,
            telemetry=self.telemetry,
            events=self._events_processed,
            counters=self._result_counters(),
            trace=self.tracer,
            complete=False,
        )

    def finalize(self) -> SimulationResult:
        """Close the run and build the final result; raises when pending
        jobs can never be scheduled (deadlock)."""
        if self.pending:
            raise SimulationError(
                f"{len(self.pending)} jobs never scheduled (deadlock): "
                f"{[j.job_id for j in self.pending.head(5)]}"
            )
        makespan = self.events.now
        if self.telemetry is not None and not self._finalized:
            self.telemetry.close(makespan)
        self._finalized = True
        return SimulationResult(
            jobs=list(self.jobs.values()),
            makespan=makespan,
            telemetry=self.telemetry,
            events=self._events_processed,
            counters=self._result_counters(),
            trace=self.tracer,
        )

    # ------------------------------------------------------------------ run

    def run(self) -> SimulationResult:
        """Execute to completion and return the result — exactly the
        streaming loop driven to exhaustion, so batch replay and the
        live service share every line of the event loop."""
        self.start()
        while self.step():
            pass
        return self.finalize()

    def _result_counters(self) -> Dict[str, int]:
        """A copy of the run's counters plus ``events``.  The context
        is created fresh per Simulation, so they are absolute for this
        run."""
        return {**self.ctx.counters, "events": self._events_processed}

    # ----------------------------------------------------------- internals

    def _finish_job(self, job: Job, now: float,
                    affected: Set[int], touched: Set[int]) -> None:
        """Settle and complete one job; the speed refresh of its
        co-residents is deferred to the end of the event batch (they are
        accumulated into ``affected``/``touched``)."""
        if job.state is not JobState.RUNNING:
            raise SimulationError(f"finish event for non-running job {job.job_id}")
        job.settle_progress(now)
        if job.remaining_work > 1e-6 * max(1.0, job.total_work):
            raise SimulationError(
                f"job {job.job_id} finished with work left "
                f"({job.remaining_work:.3g})"
            )
        placement = job.placement
        assert placement is not None
        # The job itself was settled above, and it is the sole resident
        # of any node it occupies alone — only *shared* nodes can hold
        # co-runners that need settling (a columns-driven prune).
        residents = self._settle_shared(placement.node_ids, now)
        residents.discard(job.job_id)
        self.cluster.remove_slices(placement.node_ids, job.job_id)
        job.complete(now)
        # The job is terminal: its finish-event version entry can never
        # be consulted again (any heap leftovers read as stale against a
        # missing entry), so drop it to bound _versions memory.
        self.events.retire(job.job_id)
        if self.tracer is not None:
            self.tracer.finish(now, job, placement.n_nodes)
        self._job_conds.pop(job.job_id, None)
        if self._fabric is not None:
            self._fabric_note_end(job.job_id)
        self._running -= 1
        self._terminal += 1
        self._turnaround_sum += job.turnaround_time
        touched.update(placement.node_ids)
        affected.update(residents)
        affected.discard(job.job_id)
        # Completion hook: lets policies piggyback profiling on finished
        # runs (paper Section 4.4: exclusive runs refresh the database).
        self.policy.on_job_finish(job, now)

    # ------------------------------------------------------- fault handling

    def _handle_node_fail(self, node_id: int, now: float,
                          affected: Set[int], touched: Set[int]) -> None:
        """A node dies: every resident job loses its run (all slices on
        all its nodes are evicted and the attempt's work becomes
        badput), then the node leaves the free-core index."""
        self.ctx.counters["node_failures"] += 1
        cluster = self.cluster
        residents = cluster.node(node_id).resident_job_ids
        if self.tracer is not None:
            self.tracer.node_fail(now, node_id, len(residents))
        for jid in residents:
            self._evict_job(self.jobs[jid], node_id, now,
                            affected, touched)
        cluster.fail_node(node_id)
        touched.add(node_id)

    def _evict_job(self, job: Job, failed_node: int, now: float,
                   affected: Set[int], touched: Set[int]) -> None:
        """Settle, tear down, and requeue (or fail) one running job hit
        by the failure of ``failed_node``."""
        placement = job.placement
        assert placement is not None
        nodes = set(placement.node_ids)
        residents = self._settle_residents(nodes, now)
        self.cluster.remove_slices(placement.node_ids, job.job_id)
        self.events.cancel_finish(job.job_id)
        tracer = self.tracer
        lost_before = job.lost_node_seconds if tracer is not None else 0.0
        job.evict(now)
        self._job_conds.pop(job.job_id, None)
        if self._fabric is not None:
            self._fabric_note_end(job.job_id)
        self._running -= 1
        self.ctx.counters["job_evictions"] += 1
        self.policy.on_job_evict(job, now)
        touched.update(nodes)
        residents.discard(job.job_id)
        affected.update(residents)
        affected.discard(job.job_id)
        if job.retries <= self._retry.max_retries:
            self.ctx.counters["job_retries"] += 1
            requeue_at: Optional[float] = now + self._retry.backoff_s
            self.events.push_submit(requeue_at, job.job_id)
        else:
            requeue_at = None
            job.mark_failed(now)
            # Terminal (retry budget exhausted): the version entry is
            # dead weight — drop it (see _finish_job).  Retried jobs
            # keep theirs so their version counter stays monotone.
            self.events.retire(job.job_id)
            self.ctx.counters["jobs_failed"] += 1
            self._terminal += 1
        if tracer is not None:
            tracer.evict(now, job, failed_node,
                         job.lost_node_seconds - lost_before, requeue_at)
            if requeue_at is None:
                tracer.job_failed(now, job)

    def _handle_node_recover(self, node_id: int) -> None:
        """A failed node rejoins, empty; recovery is a scheduling point
        (capacity appeared, exactly like a completion)."""
        self.cluster.recover_node(node_id)
        self.ctx.counters["node_recoveries"] += 1

    def _handle_profile_event(self, kind: EventKind) -> None:
        up = kind is EventKind.PROFILE_UP
        if not up:
            self.ctx.counters["profile_outages"] += 1
        self.policy.set_profile_store_available(up)

    # ------------------------------------------------------ fabric tracking

    def _fabric_note_start(self, job: Job,
                           placement: Placement) -> Optional[float]:
        """Register a just-started job with the physical fabric tracker.

        Returns the job's per-node cross-fabric network fraction (the
        tracer's ``xfrac``), or ``None`` when the placement stays inside
        one rack or the program never communicates — such jobs put no
        traffic on the ToR uplinks or the spine.  Only called when the
        fabric is active."""
        node_ids = placement.node_ids
        count = len(node_ids)
        if count <= 1:
            return None
        arr = np.fromiter(node_ids, dtype=np.int64, count=count)
        uniq, cnt = np.unique(self._f_rack_of[arr], return_counts=True)
        if uniq.size == 1:
            return None
        frac = self.ctx.network_fraction(job.program, count)
        if frac == 0.0:
            return None
        rack_counts = tuple(zip(uniq.tolist(), cnt.tolist()))
        self._cross_jobs[job.job_id] = (frac, count, rack_counts)
        self._fabric_dirty = True
        return frac

    def _fabric_note_end(self, job_id: int) -> None:
        """Deregister a finished/evicted job; no-op for jobs that never
        crossed racks.  Only called when the fabric is active."""
        if self._cross_jobs.pop(job_id, None) is not None:
            self._route_loads.pop(job_id, None)
            self._fabric_dirty = True

    def _recompute_fabric_loads(self, now: float) -> None:
        """Rebuild the physical per-link loads and per-job route loads
        from the cross-rack running set.

        Deterministic by construction: jobs accumulate in sorted-id
        order with a fixed operation sequence, so the invariant
        checker's replay (:func:`repro.obs.invariants.check_trace`)
        reproduces every float exactly from the trace's ``start``
        records.  A job on ``n`` nodes with ``s`` of them in rack ``r``
        sends fraction ``(n - s) / (n - 1)`` of its per-node traffic
        across that rack's uplink (uniform partner model, DESIGN.md
        §13), so the rack's load gains ``frac * ((n - s) / (n - 1)) * s``
        and everything crossing an uplink also crosses the spine."""
        fabric = self._fabric
        num_nodes = len(self.cluster.nodes)
        num_racks = self._f_num_racks
        cross = self._cross_jobs
        tor = [0.0] * num_racks
        for jid in sorted(cross):
            frac, n, rack_counts = cross[jid]
            for r, s in rack_counts:
                tor[r] += frac * ((n - s) / (n - 1)) * s
        spine = 0.0
        for load in tor:
            spine += load
        pop = self._f_rack_pop
        tor_util = [
            fabric.tor_utilization(tor[r], pop[r])
            for r in range(num_racks)
        ]
        spine_util = fabric.spine_utilization(spine, num_nodes)
        route_loads: Dict[int, float] = {}
        for jid, (frac, n, rack_counts) in cross.items():
            load = spine_util
            for r, _s in rack_counts:
                if tor_util[r] > load:
                    load = tor_util[r]
            route_loads[jid] = load
        self._route_loads = route_loads
        counters = self.ctx.counters
        counters["fabric_link_refreshes"] += 1
        counters["fabric_route_evals"] += len(route_loads)
        if self.tracer is not None:
            self.tracer.links(now, tor_util, spine_util)

    def _scheduling_point(self, now: float,
                          affected: Set[int], touched: Set[int]) -> None:
        if not self.pending:
            return
        tracer = self.tracer
        trace_sched = tracer is not None \
            and tracer.level >= TraceLevel.EVENTS
        if trace_sched:
            pending_before = len(self.pending)
            counters = self.ctx.counters
            tried_before = counters["try_place_calls"]
            skipped_before = counters["jobs_skipped"]
        decisions = self.policy.schedule_point(self.cluster, self.pending, now)
        if trace_sched:
            tracer.sched(
                now, pending_before, len(decisions),
                counters["try_place_calls"] - tried_before,
                counters["jobs_skipped"] - skipped_before,
            )
        if not decisions:
            return
        placed_ids = {d.job.job_id for d in decisions}
        if len(placed_ids) != len(decisions):
            raise SimulationError("policy placed the same job twice")
        new_nodes: Set[int] = set()
        for d in decisions:
            new_nodes.update(d.placement.node_ids)
        # Settle co-runners *before* the new slices change their speeds.
        # (The policy already mutated the cluster, but allocations do not
        # advance time, so settling at `now` is still exact — as is
        # re-settling a job another event of this batch already settled.)
        affected.update(self._settle_shared(new_nodes, now))
        touched.update(new_nodes)
        if tracer is not None:
            # The policy installed every decision's slices before this
            # loop, so partner sets would otherwise see jobs whose start
            # records come *later* in the stream.  Emitting partners in
            # record order (exclude not-yet-emitted co-starters) keeps
            # the trace replayable.
            unstarted = {d.job.job_id for d in decisions}
        pending = self.pending
        for d in decisions:
            job = d.job
            if pending.get(job.job_id) is not job:
                raise SimulationError(
                    f"policy placed job {job.job_id} that is not pending"
                )
            pending.remove(job.job_id)
            work = (
                reference_time(job.program, job.procs, self._spec)
                * job.work_multiplier
            )
            job.begin(now, work, d.placement, d.scale_factor)
            self._running += 1
            affected.add(job.job_id)
            xfrac = None
            if self._fabric is not None:
                xfrac = self._fabric_note_start(job, d.placement)
            if tracer is not None:
                unstarted.discard(job.job_id)
                partners = self.cluster.resident_jobs_on(
                    d.placement.node_ids
                )
                partners.discard(job.job_id)
                partners -= unstarted
                tracer.start(now, job, d, partners, xfrac=xfrac)

    def _check_liveness(self) -> None:
        if self.pending and self._running == 0 \
                and self.events.peek_time() is None:
            raise SimulationError(
                "scheduler placed nothing on an idle cluster with pending "
                f"jobs {[j.job_id for j in self.pending.head(5)]}"
            )

    def _settle_residents(self, node_ids: Set[int], now: float) -> Set[int]:
        """Settle progress of every running job resident on the given
        nodes; returns their job ids."""
        affected = self.cluster.resident_jobs_on(node_ids)
        for jid in affected:
            job = self.jobs.get(jid)
            if job is None:
                raise SimulationError(
                    f"node hosts unknown job {jid} (policy placed a job "
                    f"that was never submitted)"
                )
            if job.state is JobState.RUNNING:
                job.settle_progress(now)
        return set(affected)

    def _settle_shared(self, node_ids, now: float) -> Set[int]:
        """Settle progress of running jobs on the *shared* subset of the
        given nodes (resident count > 1, pruned through the n_res
        column).  Callers must only use this when every sole resident is
        already settled or not yet running — the finishing job in
        :meth:`_finish_job`, the just-placed jobs in
        :meth:`_scheduling_point` — so the settled set matches
        :meth:`_settle_residents` exactly.  Skipping a *different*
        running job's settle would not be equivalent: progress is
        accumulated stepwise and two exact sub-steps need not bit-match
        one combined step."""
        affected = self.cluster.shared_resident_jobs(node_ids)
        for jid in affected:
            job = self.jobs.get(jid)
            if job is None:
                raise SimulationError(
                    f"node hosts unknown job {jid} (policy placed a job "
                    f"that was never submitted)"
                )
            if job.state is JobState.RUNNING:
                job.settle_progress(now)
        return affected

    def _refresh(self, job_ids: Set[int], touched_nodes: Set[int],
                 now: float) -> None:
        """Recompute speeds and finish events for the given jobs, and
        record telemetry for every node whose conditions changed.

        Arbitration comes from :meth:`ClusterState.arbitration_batch`.
        """
        if self._fabric is not None and self._fabric_dirty:
            self._fabric_dirty = False
            # Every cross-rack job shares the spine, so a change in the
            # cross set moves all of their route loads: settle each at
            # its old speed (re-settling an already-settled batch member
            # is an exact no-op) and fold them into the refresh set so
            # they re-derive speed below.
            for jid in self._cross_jobs:
                job = self.jobs[jid]
                if job.state is JobState.RUNNING:
                    job.settle_progress(now)
            self._recompute_fabric_loads(now)
            job_ids = job_ids | self._cross_jobs.keys()
        if self.ctx.enabled:
            self._refresh_incremental(job_ids, touched_nodes, now)
            return
        # Reference path: every node any affected job spans needs current
        # arbitration; touched nodes that no running job reads (e.g.
        # nodes an exclusive job just vacated) only matter to telemetry.
        nodes_needed: Set[int] = set()
        for jid in job_ids:
            job = self.jobs[jid]
            if job.state is JobState.RUNNING and job.placement is not None:
                nodes_needed.update(job.placement.node_ids)
        if self.telemetry is not None:
            nodes_needed.update(touched_nodes)
        if not nodes_needed:
            return
        self.ctx.counters["refresh_cycles"] += 1
        self.ctx.counters["nodes_refreshed"] += len(nodes_needed)
        tracer = self.tracer
        trace_full = tracer is not None \
            and tracer.level >= TraceLevel.FULL
        views = self.cluster.arbitration_batch(nodes_needed)

        # Nodes carrying identical slices yield identical conditions;
        # interning them keeps wide jobs from re-validating thousands of
        # equal NodeConditions (job_time dedupes on the same identity).
        interned: Dict[tuple, NodeConditions] = {}
        cache = self._spec.cache
        for jid in job_ids:
            job = self.jobs[jid]
            if job.state is not JobState.RUNNING:
                continue
            placement = job.placement
            assert placement is not None
            conditions = []
            procs_per_node = placement.procs_per_node
            for nid in placement.node_ids:
                view = views[nid]
                slot = view[0].index(jid)
                grant = view[1][slot]
                eff = view[3][slot]
                procs = procs_per_node[nid]
                key = (procs, eff, grant, view[2])
                cond = interned.get(key)
                if cond is None:
                    cap = cache.ways_to_mb(eff) / procs
                    cond = NodeConditions(
                        procs, cap, grant, net_load=view[2]
                    )
                    interned[key] = cond
                conditions.append(cond)
            t_now = job_time(
                job.program, job.procs, conditions, self._spec,
                route_load=self._route_loads.get(jid, 0.0),
            )
            t_ref = reference_time(job.program, job.procs, self._spec)
            job.set_speed(t_ref / t_now)
            if trace_full:
                tracer.speed(now, jid, job.speed)
            self.events.push_finish(job.projected_finish(), jid)

        if self.telemetry is not None:
            for nid in touched_nodes:
                self.telemetry.record(
                    nid, now, sum(views[nid][1]),
                    cores=self.cluster.node(nid).used_cores,
                )

    def _refresh_incremental(self, job_ids: Set[int],
                             touched_nodes: Set[int], now: float) -> None:
        """Fast-path refresh: only *touched* nodes (slice set changed this
        batch) can have new arbitration views, so each affected job
        re-derives condition keys for its touched nodes and reuses the
        cached keys everywhere else.  Its execution time then comes from
        the distinct-key multiset — bit-identical to :func:`job_time`
        over the full per-node list, which only ever reads the distinct
        condition set (see ``_job_time_from_keys``)."""
        refreshed: List[Job] = []
        needed: Set[int] = set()
        # Per-job work lists computed in this scan and consumed by the
        # derivation loop below: ``(upd, solo)`` where ``upd`` is the
        # node list to re-key (None: the whole placement, fresh build)
        # and ``solo`` the parallel is-sole-resident flags (None: no
        # solo nodes).  Sole-resident nodes are pruned from ``needed``:
        # their condition keys come from the closed-form
        # ``solo_condition_key`` instead of a materialized view.
        updates: Dict[int, tuple] = {}
        conds = self._job_conds
        cluster = self.cluster
        n_res = cluster.columns.n_res
        for jid in job_ids:
            job = self.jobs[jid]
            if job.state is not JobState.RUNNING or job.placement is None:
                continue
            refreshed.append(job)
            state = conds.get(jid)
            if state is not None and state[0] is None:
                # Solo-condition entry (no per-node key map): it cannot
                # be updated incrementally, so re-derive from scratch —
                # the job may well still be all-solo (e.g. its own nodes
                # were only brushed by a sibling placement batch).
                del conds[jid]
                state = None
            if state is None:
                node_ids = job.placement.node_ids
                arr = np.fromiter(node_ids, dtype=np.int64,
                                  count=len(node_ids))
                solo = n_res[arr] == 1
                if solo.all():
                    conds[jid] = (None, cluster.solo_conditions(
                        jid, job.program, job.placement
                    ))
                    continue
                if solo.any():
                    needed.update(arr[~solo].tolist())
                    updates[jid] = (None, solo.tolist())
                else:
                    needed.update(node_ids)
                    updates[jid] = (None, None)
            else:
                node_keys = state[0]
                if len(touched_nodes) < len(node_keys):
                    upd = [n for n in touched_nodes if n in node_keys]
                else:
                    upd = [n for n in node_keys if n in touched_nodes]
                if upd:
                    arr = np.fromiter(upd, dtype=np.int64, count=len(upd))
                    solo = n_res[arr] == 1
                    if solo.any():
                        needed.update(arr[~solo].tolist())
                        updates[jid] = (upd, solo.tolist())
                        continue
                    needed.update(upd)
                updates[jid] = (upd, None)
        if self.telemetry is not None:
            needed.update(touched_nodes)
        if not needed and not refreshed:
            return
        self.ctx.counters["refresh_cycles"] += 1
        self.ctx.counters["nodes_refreshed"] += len(needed)
        tracer = self.tracer
        trace_full = tracer is not None \
            and tracer.level >= TraceLevel.FULL
        views = self.cluster.arbitration_batch(needed)
        t_nows: List[float] = []
        t_refs: List[float] = []
        for job in refreshed:
            jid = job.job_id
            placement = job.placement
            procs_per_node = placement.procs_per_node
            state = conds.get(jid)
            if state is not None and state[0] is None:
                # Sole resident everywhere: condition-key counts came
                # straight from ClusterState.solo_conditions in the scan
                # above — no views to consult.
                key_counts = state[1]
            elif state is None:
                _, solo = updates[jid]
                node_keys = {}
                key_counts: Dict[tuple, int] = {}
                # Sibling nodes of a wide job share one view tuple (see
                # arbitration_batch), and an identical view implies an
                # identical condition key — derive once per distinct view.
                # Sole-resident nodes never got a view: their key is the
                # closed form, derived once per distinct process count.
                prev_view = prev_key = None
                solo_keys: Dict[int, tuple] = {}
                for i, nid in enumerate(placement.node_ids):
                    if solo is not None and solo[i]:
                        p = procs_per_node[nid]
                        key = solo_keys.get(p)
                        if key is None:
                            key = cluster.solo_condition_key(
                                jid, job.program, placement, p
                            )
                            solo_keys[p] = key
                    else:
                        view = views[nid]
                        if view is prev_view:
                            key = prev_key
                        else:
                            slot = view[0].index(jid)
                            key = (
                                procs_per_node[nid], view[3][slot],
                                view[1][slot], view[2],
                            )
                            prev_view, prev_key = view, key
                    node_keys[nid] = key
                    key_counts[key] = key_counts.get(key, 0) + 1
                conds[jid] = (node_keys, key_counts)
            else:
                node_keys, key_counts = state
                upd, solo = updates[jid]
                solo_keys = {}
                for i, nid in enumerate(upd):
                    if solo is not None and solo[i]:
                        p = procs_per_node[nid]
                        key = solo_keys.get(p)
                        if key is None:
                            key = cluster.solo_condition_key(
                                jid, job.program, placement, p
                            )
                            solo_keys[p] = key
                    else:
                        view = views[nid]
                        slot = view[0].index(jid)
                        key = (
                            procs_per_node[nid], view[3][slot],
                            view[1][slot], view[2],
                        )
                    old = node_keys[nid]
                    if key != old:
                        node_keys[nid] = key
                        count = key_counts[old] - 1
                        if count:
                            key_counts[old] = count
                        else:
                            del key_counts[old]
                        key_counts[key] = key_counts.get(key, 0) + 1
            t_nows.append(self._job_time_from_keys(
                job.program, job.procs, key_counts, placement.n_nodes,
                self._route_loads.get(jid, 0.0),
            ))
            t_refs.append(reference_time(job.program, job.procs, self._spec))

        # Batched finish-time update: ``speed = t_ref / t_now`` and
        # ``finish = last_progress_update + remaining_work / speed`` are
        # one and two IEEE ops per job — elementwise float64 division and
        # addition are bit-identical to the scalar ``set_speed`` /
        # ``projected_finish`` sequence.  Validation runs up front over
        # the whole batch (before any job mutates), raising the scalar
        # path's exact error for the first offender in job order.
        if refreshed:
            m = len(refreshed)
            t_now_arr = np.array(t_nows, dtype=np.float64)
            t_ref_arr = np.array(t_refs, dtype=np.float64)
            speeds = t_ref_arr / t_now_arr
            bad = speeds <= 0.0
            if bad.any():
                offender = refreshed[int(np.argmax(bad))]
                raise SimulationError(
                    f"job {offender.job_id} computed non-positive speed "
                    f"{float(speeds[int(np.argmax(bad))])}"
                )
            last = np.fromiter(
                (j.last_progress_update for j in refreshed),
                dtype=np.float64, count=m,
            )
            rem = np.fromiter(
                (j.remaining_work for j in refreshed),
                dtype=np.float64, count=m,
            )
            fins = last + rem / speeds
            self.ctx.counters["vec_finish_updates"] += m
            push_finish = self.events.push_finish
            speeds_list = speeds.tolist()
            fins_list = fins.tolist()
            for i, job in enumerate(refreshed):
                job.speed = speeds_list[i]
                if trace_full:
                    tracer.speed(now, job.job_id, job.speed)
                push_finish(fins_list[i], job.job_id)

        if self.telemetry is not None:
            for nid in touched_nodes:
                self.telemetry.record(
                    nid, now, sum(views[nid][1]),
                    cores=self.cluster.node(nid).used_cores,
                )

    def _job_time_from_keys(self, program, procs: int,
                            key_counts: Dict[tuple, int],
                            n_nodes: int,
                            route_load: float = 0.0) -> float:
        """:func:`job_time` evaluated from the distinct condition keys of
        a running job.  job_time reduces the per-node list to its
        distinct condition set before computing anything (slowest rate,
        peak congestion), and a key maps 1:1 onto a NodeConditions value
        (capacity is a strictly monotone function of effective ways at
        fixed procs) — so min/max over the key set are bit-identical to
        min/max over ``set(per_node)``.  The per-node structural
        validations (procs sum, non-empty placement) are guaranteed by
        Placement construction and skipped here."""
        if program.max_nodes is not None and n_nodes > program.max_nodes:
            raise HardwareModelError(
                f"{program.name} cannot span {n_nodes} nodes "
                f"(max {program.max_nodes})"
            )
        spec = self._spec
        ways_to_mb = spec.cache.ways_to_mb
        ctx = self.ctx
        slowest = min(
            ctx.process_rate(
                program, p, ways_to_mb(eff) / p, grant, n_nodes
            )
            for p, eff, grant, _net in key_counts
        )
        compute_time = program.instr_per_proc(procs) / slowest
        k = scale_factor_of(n_nodes, procs, spec)
        t_ref = reference_time(program, procs, spec)
        comm_time = t_ref * program.comm.comm_fraction(k, n_nodes)
        congestion = max(key[3] for key in key_counts)
        # Fabric route congestion binds exactly like node-link
        # congestion (see job_time); 0.0 never changes the value.
        if route_load > congestion:
            congestion = route_load
        if congestion > 1.0:
            comm_time *= congestion
        return compute_time + comm_time


class Simulation(SchedulerCore):
    """One simulated execution of a preloaded job sequence under one
    policy — the batch facade over :class:`SchedulerCore`.

    Nothing is overridden: construct with the complete job list and call
    :meth:`SchedulerCore.run`.  The name survives as the entry point the
    experiment harnesses, grid runners, and tests build, while the
    streaming surface (``submit`` / ``step`` / ``snapshot``) lives on
    the core for the live service.
    """

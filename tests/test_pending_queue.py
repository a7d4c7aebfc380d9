"""The pending-queue index (DESIGN.md §7).

:class:`~repro.sim.pending.PendingQueue` keeps the backlog sorted by the
policy's priority key instead of ranking it at every scheduling point.
The contract: after any interleaving of submits, requeues, aging and
removals, the head it serves is exactly what ranking the whole backlog
with ``heapq.nsmallest`` would return.  ``nsmallest`` survives only
here, as the oracle — both for the queue on its own (a hypothesis
property) and for whole simulations whose backlog outgrows the scan
window (a decision-trace identity).
"""

from __future__ import annotations

import heapq

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.apps.catalog import get_program  # noqa: E402
from repro.config import SchedulerConfig, SimConfig, TraceConfig  # noqa: E402
from repro.errors import SimulationError  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.hardware.topology import ClusterSpec  # noqa: E402
from repro.obs import decision_stream, trace_lines  # noqa: E402
from repro.scheduling import BaseScheduler  # noqa: E402
from repro.sim.job import Job  # noqa: E402
from repro.sim.pending import PendingQueue  # noqa: E402
from repro.sim.runtime import Simulation  # noqa: E402
from repro.workloads.trace import (  # noqa: E402
    SyntheticTraceConfig,
    synthesize_trace,
)

KEY = BaseScheduler.priority_key
LIMITS = (1, 2, 3, 8, 1000)
EP = get_program("EP")


def _job(job_id: int, submit: float) -> Job:
    return Job(job_id=job_id, program=EP, procs=1, submit_time=submit)


class _Harness:
    """Applies drawn operations to a :class:`PendingQueue` and to a
    plain list of the same jobs (the model)."""

    def __init__(self) -> None:
        self.queue = PendingQueue(KEY)
        self.model: list = []
        self.removed: list = []
        self.next_id = 0

    def _drop(self, jobs) -> None:
        for job in jobs:
            assert self.queue.remove(job.job_id) is job
            self.model.remove(job)
            self.removed.append(job)

    def submit(self, slot: int) -> None:
        # Few distinct submit times, so ranks often tie down to the id.
        job = _job(self.next_id, float(slot))
        self.next_id += 1
        self.queue.push(job)
        self.model.append(job)

    def requeue(self, pick: int) -> None:
        """An evicted job comes back with its age and original submit
        time, usually ahead of younger jobs."""
        if self.removed:
            job = self.removed.pop(pick % len(self.removed))
            self.queue.push(job)
            self.model.append(job)

    def age_prefix(self, limit: int, scanned: int, placed: int) -> None:
        """Base policy: scan a prefix of the head, place some of it
        (removed after the point), age the rest."""
        window = list(self.queue.head(limit))[:scanned]
        hits = [j for i, j in enumerate(window) if placed >> i & 1]
        self.queue.pass_over([j for j in window if j not in hits])
        self._drop(hits)

    def age_sparse(self, limit: int, aged: int, placed: int) -> None:
        """Backfill policy: age an arbitrary subset of the window,
        place part of the rest, leave the remainder untouched."""
        window = list(self.queue.head(limit))
        older = [j for i, j in enumerate(window) if aged >> i & 1]
        hits = [j for i, j in enumerate(window)
                if placed >> i & 1 and j not in older]
        self.queue.pass_over(older)
        self._drop(hits)

    def remove(self, pick: int) -> None:
        if self.model:
            self._drop([self.model[pick % len(self.model)]])

    def check(self) -> None:
        assert len(self.queue) == len(self.model)
        for limit in LIMITS:
            assert list(self.queue.head(limit)) == \
                heapq.nsmallest(limit, self.model, key=KEY)
        assert list(self.queue) == sorted(self.model, key=KEY)
        for job in self.model:
            assert self.queue.get(job.job_id) is job


_mask = st.integers(0, 2 ** 10 - 1)
_limit = st.sampled_from(LIMITS[:-1])
OPS = st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 4)),
    st.tuples(st.just("requeue"), st.integers(0, 63)),
    st.tuples(st.just("age_prefix"), _limit, st.integers(0, 10), _mask),
    st.tuples(st.just("age_sparse"), _limit, _mask, _mask),
    st.tuples(st.just("remove"), st.integers(0, 63)),
)


class TestIndexMatchesFullRanking:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(OPS, max_size=80))
    def test_head_equals_nsmallest_after_every_op(self, ops):
        harness = _Harness()
        harness.check()
        for name, *args in ops:
            getattr(harness, name)(*args)
            harness.check()

    def test_aging_moves_a_job_forward(self):
        queue = PendingQueue(KEY, [_job(i, 0.0) for i in range(4)])
        third = queue.get(2)
        queue.pass_over([third])
        assert [j.job_id for j in queue] == [2, 0, 1, 3]
        assert third.times_passed_over == 1

    def test_duplicate_push_rejected(self):
        queue = PendingQueue(KEY, [_job(0, 0.0)])
        with pytest.raises(SimulationError, match="already pending"):
            queue.push(_job(0, 1.0))

    def test_remove_unknown_id_raises(self):
        with pytest.raises(KeyError):
            PendingQueue(KEY).remove(7)


class _NsmallestQueue(PendingQueue):
    """The reference ranking: a plain list, ranked in full by
    ``heapq.nsmallest`` at every head read.  Also records whether the
    run exercised what the index optimizes: a backlog deeper than the
    scan window, and aging that is not a prefix of the head."""

    def __init__(self, key) -> None:
        super().__init__(key)
        self.jobs: list = []
        self.deepest = 0
        self.sparse_agings = 0
        self._last_head: list = []

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(sorted(self.jobs, key=self._key))

    def head(self, limit):
        self.deepest = max(self.deepest, len(self.jobs))
        self._last_head = heapq.nsmallest(limit, self.jobs, key=self._key)
        return iter(self._last_head)

    def get(self, job_id):
        return next((j for j in self.jobs if j.job_id == job_id), None)

    def push(self, job) -> None:
        self.jobs.append(job)

    def remove(self, job_id):
        job = self.get(job_id)
        self.jobs = [j for j in self.jobs if j is not job]
        return job

    def pass_over(self, jobs) -> None:
        jobs = list(jobs)
        positions = sorted(
            next(i for i, h in enumerate(self._last_head) if h is j)
            for j in jobs
        )
        if positions and positions[-1] >= len(positions):
            self.sparse_agings += 1
        for job in jobs:
            job.times_passed_over += 1


def _decisions(policy, reference, fault_plan=None):
    """Decision-trace lines of a congested 4-node stream whose backlog
    outgrows an 8-job scan window."""
    jobs = synthesize_trace(
        seed=3, scaling_ratio=0.9,
        config=SyntheticTraceConfig(
            n_jobs=240, duration_hours=12.0, max_width_nodes=4,
            runtime_median_s=900.0, runtime_max_s=4 * 3600.0,
        ),
    )
    sim = Simulation.from_policy_name(
        policy, ClusterSpec(num_nodes=4), jobs,
        scheduler_config=SchedulerConfig(max_queue_scan=8),
        sim_config=SimConfig(telemetry=False, max_sim_time=1e9,
                             trace=TraceConfig(level="decisions")),
        fault_plan=fault_plan,
    )
    if reference:
        sim.pending = _NsmallestQueue(sim.policy.priority_key)
    result = sim.run()
    return list(trace_lines(decision_stream(result.trace.events))), sim


class TestTruncatedWindowTraceIdentity:
    @pytest.mark.parametrize("policy,faults", [
        ("SNS", False), ("SNS", True), ("CE-BF", False),
    ])
    def test_index_replays_reference_decisions(self, policy, faults):
        plan = FaultPlan.from_mtbf(
            seed=5, num_nodes=4, mtbf_s=20 * 3600.0, mttr_s=1800.0,
            horizon_s=12 * 3600.0,
        ) if faults else None
        reference, ref_sim = _decisions(policy, True, plan)
        indexed, _ = _decisions(policy, False, plan)
        assert indexed == reference
        assert ref_sim.pending.deepest > 8
        assert ref_sim.pending.sparse_agings > 0

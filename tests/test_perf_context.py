"""PerfContext ownership: per-simulation kernel state, eviction policy,
stats plumbing, cache-mode resolution, and interleaved-stepping
bit-identity (DESIGN.md §9)."""

from __future__ import annotations

import pytest

from repro.apps.catalog import get_program
from repro.config import SimConfig
from repro.experiments.parallel import run_grid
from repro.hardware.topology import ClusterSpec
from repro.perfmodel.context import (
    COUNTER_NAMES,
    PerfContext,
    resolve_cache_mode,
)
from repro.scheduling.sns import SpreadNShareScheduler
from repro.sim.job import Job
from repro.sim.runtime import SchedulerCore, Simulation
from repro.workloads.sequences import clone_jobs, random_sequence


class TestContextIsolation:
    """Two contexts never observe each other's entries, stats, or mode."""

    def test_caches_and_stats_are_private(self):
        program = get_program("MG")
        a, b = PerfContext(), PerfContext()
        a.process_rate(program, 16, 4.0, 50.0, 1)
        a.process_rate(program, 16, 4.0, 50.0, 1)
        assert a.cache_stats()["rate"] == {
            "hits": 1, "misses": 1, "size": 1
        }
        # b saw none of it.
        assert b.cache_stats()["rate"] == {
            "hits": 0, "misses": 0, "size": 0
        }
        # First call on b is a miss even though a cached the same key.
        b.process_rate(program, 16, 4.0, 50.0, 1)
        assert b.cache_stats()["rate"]["misses"] == 1
        assert b.cache_stats()["rate"]["hits"] == 0

    def test_enabled_flag_is_private(self):
        a, b = PerfContext(enabled=True), PerfContext(enabled=True)
        with a.disabled():
            assert not a.enabled
            assert b.enabled
        assert a.enabled

    def test_simulations_get_fresh_contexts(self):
        spec = ClusterSpec(num_nodes=4)
        jobs = random_sequence(seed=11, n_jobs=6)

        def build():
            return Simulation.from_policy_name(
                "SNS", spec, clone_jobs(jobs),
                sim_config=SimConfig(telemetry=False, perf_caches=True),
            )

        s1, s2 = build(), build()
        assert s1.ctx is not s2.ctx
        assert s1.cluster.ctx is s1.ctx
        r1, r2 = s1.run(), s2.run()
        # Absolute per-run counters: the second run cannot have been
        # warmed by the first, so the kernel stats agree exactly.
        assert r1.counters == r2.counters


class TestEviction:
    def test_per_context_max_entries(self):
        program = get_program("EP")
        small = PerfContext(max_entries=4)
        big = PerfContext()  # default MAX_ENTRIES
        for i in range(6):
            cap = 1.0 + i
            small.process_rate(program, 8, cap, 40.0, 1)
            big.process_rate(program, 8, cap, 40.0, 1)
        # The small context hit its ceiling and dumped wholesale at
        # least once; the big one kept every entry.
        assert small.cache_stats()["rate"]["size"] < 6
        assert big.cache_stats()["rate"]["size"] == 6

    def test_evicted_values_stay_bit_identical(self):
        program = get_program("MG")
        tiny = PerfContext(max_entries=2)
        reference = PerfContext(enabled=False)
        for i in range(8):
            cap = 0.5 + 0.25 * i
            assert tiny.process_rate(program, 16, cap, 60.0, 1) \
                == reference.process_rate(program, 16, cap, 60.0, 1)


class TestStatsPlumbing:
    def test_result_counters_match_context_exactly(self):
        spec = ClusterSpec(num_nodes=4)
        jobs = random_sequence(seed=3, n_jobs=8)
        sim = Simulation.from_policy_name(
            "SNS", spec, jobs,
            sim_config=SimConfig(telemetry=False, perf_caches=True),
        )
        result = sim.run()
        # The result is the context's one counter dict plus ``events``.
        assert result.counters == {**sim.ctx.counters,
                                   "events": result.events}
        assert result.counters is not sim.ctx.counters
        # Every named counter is present, and the run exercised the
        # kernels.
        assert set(COUNTER_NAMES) <= result.counters.keys()
        assert result.counters["memo_rate_misses"] > 0
        assert result.counters["batch_calls"] > 0

    def test_reference_run_reports_zero_kernel_traffic(self):
        spec = ClusterSpec(num_nodes=4)
        jobs = random_sequence(seed=3, n_jobs=8)
        result = Simulation.from_policy_name(
            "SNS", spec, jobs,
            sim_config=SimConfig(telemetry=False, perf_caches=False),
        ).run()
        assert result.counters["memo_rate_hits"] == 0
        assert result.counters["memo_rate_misses"] == 0
        assert result.counters["batch_calls"] == 0

    def test_reused_policy_reports_its_own_run(self):
        """A policy object driving a second simulation reports that
        run's counters only, exactly like a fresh policy."""
        spec = ClusterSpec(num_nodes=4)
        jobs = random_sequence(seed=3, n_jobs=24)

        def run(policy):
            return Simulation(
                spec, policy, clone_jobs(jobs),
                SimConfig(telemetry=False, perf_caches=True),
            ).run()

        reused = SpreadNShareScheduler(spec)
        run(reused)
        second = run(reused)
        fresh = run(SpreadNShareScheduler(spec))
        for key in ("try_place_calls", "jobs_skipped",
                    "demand_cache_hits"):
            assert fresh.counters[key] > 0, key
        assert second.counters == fresh.counters
        assert second.makespan == fresh.makespan


class TestCacheModeResolution:
    def test_explicit_field_wins(self):
        assert resolve_cache_mode(True) is True
        assert resolve_cache_mode(False) is False

    def test_default_is_enabled(self):
        assert resolve_cache_mode(None) is True

    def test_env_shim_is_gone(self, monkeypatch):
        """The deprecated ``REPRO_DISABLE_PERF_CACHES`` kill-switch was
        removed after its one deprecation cycle; the variable is now
        ignored and ``SimConfig.perf_caches`` is the only control."""
        monkeypatch.setenv("REPRO_DISABLE_PERF_CACHES", "1")
        assert resolve_cache_mode(None) is True
        spec = ClusterSpec(num_nodes=1)
        jobs = [Job(job_id=0, program=get_program("EP"), procs=8)]
        sim = Simulation.from_policy_name("CE", spec, jobs,
                                          sim_config=SimConfig())
        assert sim.ctx.enabled is True

    def test_memo_facade_is_gone(self):
        """The deprecated process-global ``perfmodel.memo`` facade was
        removed after its one deprecation cycle; kernel state lives on
        per-simulation :class:`PerfContext` objects only."""
        with pytest.raises(ImportError):
            import repro.perfmodel.memo  # noqa: F401


def _core(seed, caches):
    """One seeded SNS run as an unstarted core with a private context."""
    return SchedulerCore.from_policy_name(
        "SNS", ClusterSpec(num_nodes=8),
        clone_jobs(random_sequence(seed=seed, n_jobs=10)),
        sim_config=SimConfig(telemetry=False, perf_caches=caches),
    )


def _fingerprint(result):
    return (
        result.makespan,
        result.mean_turnaround(),
        sorted((j.job_id, j.start_time, j.finish_time)
               for j in result.finished_jobs),
    )


def _run_point(task):
    """One grid point: an independent simulation run serially."""
    seed, caches = task
    return _fingerprint(_core(seed, caches).run())


def _interleaved(*cores):
    """Drive ``cores`` on this thread: start each, then step them in
    strict rotation until all are drained, then finalize each."""
    for core in cores:
        core.start()
    live = list(cores)
    while live:
        live = [core for core in live if core.step()]
    return [_fingerprint(core.finalize()) for core in cores]


def _boom(task):
    raise ValueError(f"boom {task}")


class TestThreadInterleaving:
    """Simulations interleaved event batch by event batch on one thread
    are bit-identical to serial runs — the whole point of killing
    process-global kernel state.  The rotation is deterministic, so any
    state two cores shared would show up on every run, not by chance."""

    @pytest.mark.parametrize("caches", [True, False])
    def test_interleaved_cores_match_serial(self, caches):
        interleaved = _interleaved(_core(1, caches), _core(5, caches))
        assert interleaved == [_run_point((1, caches)),
                               _run_point((5, caches))]

    def test_mixed_cache_modes_interleave_safely(self):
        """Fast and reference simulations stepping alternately cannot
        flip each other's mode — and both match their serial twins."""
        for seed in (1, 5):
            fast, ref = _interleaved(_core(seed, True), _core(seed, False))
            assert fast == _run_point((seed, True))
            assert ref == _run_point((seed, False))
            # Same seed, different mode: still bit-identical results.
            assert fast == ref

    def test_serial_fallback_and_order(self):
        tasks = [(3, True), (4, True)]
        assert run_grid(_run_point, tasks, jobs=1) == \
            [_run_point(t) for t in tasks]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError):
            run_grid(_boom, [1, 2], jobs=2)

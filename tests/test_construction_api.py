"""The unified scheduler/simulation construction API.

Every policy class constructs through one signature —
``(cluster_spec, config, *, database=None)`` — and the runtime reads
the full :class:`SchedulerPolicy` protocol directly (no ``getattr``
probing, no per-class special cases in the harnesses).
"""

import inspect

import pytest

from repro.config import SchedulerConfig, SimConfig
from repro.experiments.common import run_policy
from repro.hardware.topology import ClusterSpec
from repro.profiling.database import ProfileDatabase
from repro.scheduling import POLICIES
from repro.scheduling.base import BaseScheduler
from repro.scheduling.online_sns import OnlineSpreadNShareScheduler
from repro.scheduling.sns import SpreadNShareScheduler
from repro.sim.runtime import Simulation
from repro.workloads.sequences import random_sequence

FAST = SimConfig(telemetry=False)


class TestUniformSignature:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_accepts_database_keyword(self, name, testbed):
        policy = POLICIES[name](
            testbed, SchedulerConfig(), database=ProfileDatabase()
        )
        assert policy.cluster_spec is testbed

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_config_defaults(self, name, testbed):
        policy = POLICIES[name](testbed)
        assert policy.config == SchedulerConfig()

    def test_sns_builds_own_database_when_omitted(self, testbed):
        assert SpreadNShareScheduler(testbed).database is not None

    def test_sns_uses_provided_database(self, testbed):
        db = ProfileDatabase()
        assert SpreadNShareScheduler(testbed, database=db).database is db

    def test_online_sns_shares_the_signature(self, testbed):
        db = ProfileDatabase()
        policy = OnlineSpreadNShareScheduler(testbed, database=db)
        assert policy.database is db

    def test_database_is_keyword_only(self, testbed):
        with pytest.raises(TypeError):
            SpreadNShareScheduler(
                testbed, SchedulerConfig(), ProfileDatabase()
            )


class TestProtocolSurface:
    """BaseScheduler implements the whole SchedulerPolicy protocol, so
    the runtime never needs getattr probing."""

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_protocol_members_present(self, name, testbed):
        policy = POLICIES[name](testbed)
        assert isinstance(policy.partitioned, bool)
        assert isinstance(policy.enforce_bw, bool)
        assert isinstance(policy.share_residual, bool)
        for hook in ("schedule_point", "on_job_finish", "on_job_evict",
                     "set_profile_store_available"):
            assert callable(getattr(policy, hook))

    def test_profile_store_toggle_bumps_feasibility(self, testbed):
        policy = SpreadNShareScheduler(testbed)
        version = policy._feasibility_version()
        policy.set_profile_store_available(False)
        assert policy._feasibility_version() != version
        assert not policy.profile_store_up
        policy.set_profile_store_available(False)  # idempotent
        down_version = policy._feasibility_version()
        policy.set_profile_store_available(False)
        assert policy._feasibility_version() == down_version

    def test_runtime_has_no_getattr_probing(self):
        import repro.sim.runtime as runtime

        assert "getattr(self.policy" not in inspect.getsource(runtime)


class TestFromPolicyName:
    def test_builds_each_policy(self, testbed):
        jobs = random_sequence(seed=3, n_jobs=4)
        for name, cls in POLICIES.items():
            sim = Simulation.from_policy_name(
                name, testbed, jobs, sim_config=FAST
            )
            assert type(sim.policy) is cls

    def test_unknown_name_raises_keyerror(self, testbed):
        with pytest.raises(KeyError):
            Simulation.from_policy_name(
                "FIFO", testbed, random_sequence(seed=3, n_jobs=2)
            )

    def test_database_reaches_the_policy(self, testbed):
        db = ProfileDatabase()
        sim = Simulation.from_policy_name(
            "SNS", testbed, random_sequence(seed=3, n_jobs=2),
            database=db, sim_config=FAST,
        )
        assert sim.policy.database is db

    def test_run_policy_matches_direct_construction(self, testbed):
        jobs = random_sequence(seed=7, n_jobs=10)
        via_name = run_policy("SNS", testbed, jobs, sim_config=FAST)
        direct = Simulation(
            testbed, SpreadNShareScheduler(testbed),
            [j for j in random_sequence(seed=7, n_jobs=10)], FAST,
        ).run()
        assert via_name.makespan == direct.makespan

    def test_harness_has_no_policy_special_case(self):
        import repro.experiments.common as common

        source = inspect.getsource(common)
        assert "SpreadNShareScheduler" not in source

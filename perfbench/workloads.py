"""Inputs and replay drivers of the benchmark's simulator workloads.

Every workload draws a fixed job population from the repository's own
generator (``synthesize_trace``) and then jitters each arrival by an
amount drawn from the benchmark seed.  The population stays fixed on
purpose: independently synthesized traces differ in queueing cost by
about +-18% from seed to seed (7,044-job SNS replays on 8,192 nodes ran
at 843-1,217 events/s), which is wider than any bound the benchmark can
hold.  Jittered arrivals still give every seed its own event order, so
a claim can be re-checked on a held-out seed.

Jobs are mutable, so each replay builds its jobs afresh (a used job
list raises "started twice").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import SimConfig
from repro.hardware.fabric import FabricSpec
from repro.hardware.topology import ClusterSpec
from repro.sim.job import Job
from repro.sim.runtime import SchedulerCore, SimulationResult
from repro.workloads.trace import SyntheticTraceConfig, synthesize_trace

#: The full Trinity-like trace is 7,044 jobs over 1,900 hours; the
#: benchmark replays half of it at the same arrival intensity, so one
#: replay takes seconds and a run holds several of them.
TRACE_JOBS = 3522
TRACE_CONFIG = SyntheticTraceConfig(
    n_jobs=TRACE_JOBS, duration_hours=1900.0 * TRACE_JOBS / 7044,
)

#: Small Trinity-shaped jobs for the streaming soak and the service.
STREAM_CONFIG = SyntheticTraceConfig(
    n_jobs=3000, duration_hours=60.0, max_width_nodes=4,
    runtime_median_s=600.0, runtime_max_s=4 * 3600.0,
)
SERVICE_CONFIG = SyntheticTraceConfig(
    n_jobs=10000, duration_hours=100.0, max_width_nodes=4,
    runtime_median_s=600.0, runtime_max_s=4 * 3600.0,
)

#: Population seeds (the generator seeds the workloads are named for)
#: and the share of the mean inter-arrival gap a jitter may reach.
POPULATION_SEED = {"trace": 42, "stream": 1, "service": 1}
JITTER_SHARE = 0.5

SIM_CONFIG = SimConfig(telemetry=False, max_sim_time=1e12)


@dataclass(frozen=True)
class Spec:
    """One simulator workload: how to build its jobs and its core."""

    population: str
    trace_config: SyntheticTraceConfig
    policy: str
    nodes: int
    fabric: Optional[FabricSpec]
    closed_loop: bool

    def cluster(self) -> ClusterSpec:
        return ClusterSpec(num_nodes=self.nodes, fabric=self.fabric)


SIM_WORKLOADS: Dict[str, Spec] = {
    "trace-sns": Spec("trace", TRACE_CONFIG, "SNS", 8192, None,
                      closed_loop=False),
    "trace-ce-fabric": Spec(
        "trace", TRACE_CONFIG, "CE", 8192,
        FabricSpec(rack_size=32, oversubscription=4.0), closed_loop=False,
    ),
    "stream-backlog": Spec("stream", STREAM_CONFIG, "SNS", 32, None,
                           closed_loop=True),
}


def make_jobs(population: str, config: SyntheticTraceConfig,
              seed: int) -> List[Job]:
    """Fresh jobs of one population, arrivals jittered by ``seed`` and
    listed in arrival order (ties by job id)."""
    base = synthesize_trace(POPULATION_SEED[population], 0.9, config=config)
    gap = config.duration_hours * 3600.0 / config.n_jobs
    jitter = np.random.default_rng(seed).uniform(
        0.0, JITTER_SHARE * gap, size=len(base))
    jobs = [
        Job(job_id=j.job_id, program=j.program, procs=j.procs,
            submit_time=j.submit_time + float(d),
            work_multiplier=j.work_multiplier)
        for j, d in zip(base, jitter)
    ]
    jobs.sort(key=lambda j: (j.submit_time, j.job_id))
    return jobs


def build_core(spec: Spec, seed: int) -> Tuple[SchedulerCore, List[Job]]:
    """A core ready to replay: batch workloads are preloaded with their
    jobs, the closed loop gets them one by one from :func:`replay`."""
    jobs = make_jobs(spec.population, spec.trace_config, seed)
    preload = () if spec.closed_loop else jobs
    core = SchedulerCore.from_policy_name(
        spec.policy, spec.cluster(), preload, sim_config=SIM_CONFIG)
    return core, jobs


def replay(spec: Spec, core: SchedulerCore,
           jobs: List[Job]) -> Tuple[SimulationResult, List[int]]:
    """Run one replay to completion; returns the result and the host
    time of every operation in nanoseconds.

    An operation is one ``step()`` call of the batch loop (what
    ``SchedulerCore.run`` does), or, in the closed loop, one arrival:
    ``submit`` and stepping up to the arrival's time, as the live
    master does.  The closed loop drains the queue after the last
    arrival; drain steps are not operations.
    """
    clock = time.perf_counter_ns
    ops: List[int] = []
    record = ops.append
    core.start()
    if spec.closed_loop:
        for job in jobs:
            t0 = clock()
            core.submit(job)
            bound = job.submit_time
            while True:
                t = core.next_event_time()
                if t is None or t > bound or not core.step():
                    break
            record(clock() - t0)
        while core.step():
            pass
    else:
        step = core.step
        while True:
            t0 = clock()
            more = step()
            record(clock() - t0)
            if not more:
                break
    return core.finalize(), ops


def outputs(result: SimulationResult) -> Dict[str, object]:
    """The simulated outputs a run is checked on (virtual seconds)."""
    finished = result.finished_jobs
    return {
        "makespan": result.makespan,
        "mean_turnaround": result.mean_turnaround() if finished else None,
        "finished": len(finished),
    }


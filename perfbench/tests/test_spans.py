"""Self-tests of the benchmark's layer attribution.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import workloads  # noqa: E402
from repro.sim.cluster import ClusterState  # noqa: E402
from repro.workloads.trace import SyntheticTraceConfig  # noqa: E402

SMALL = workloads.Spec(
    "trace",
    SyntheticTraceConfig(n_jobs=60, duration_hours=10.0,
                         max_width_nodes=16),
    "SNS", 64, None, closed_loop=False,
)
SLEEP_S = 0.002


def traced(spec=SMALL):
    core, jobs = workloads.build_core(spec, seed=3)
    with spans.Recorder() as rec:
        result, _ = workloads.replay(spec, core, jobs)
    return rec, workloads.outputs(result)


def originals():
    return {(owner, attr): owner.__dict__[attr]
            for targets in spans.BOUNDARIES.values()
            for owner, attr in targets}


def test_added_time_lands_in_the_slow_layer_not_its_parent():
    base, _ = traced()
    original = ClusterState.remove_slices

    def slow_remove(self, node_ids, job_id):
        time.sleep(SLEEP_S)
        return original(self, node_ids, job_id)

    ClusterState.remove_slices = slow_remove
    try:
        slow, _ = traced()
    finally:
        ClusterState.remove_slices = original
    calls = slow.calls["sim.cluster.remove_slices"]
    assert calls == base.calls["sim.cluster.remove_slices"] > 0
    added = calls * SLEEP_S
    layer = (slow.self_ns["sim.cluster.remove_slices"]
             - base.self_ns["sim.cluster.remove_slices"]) / 1e9
    parent = (slow.self_ns["sim.runtime.step"]
              - base.self_ns["sim.runtime.step"]) / 1e9
    assert layer >= 0.9 * added
    assert abs(parent) < 0.25 * added


def test_wrappers_are_restored_after_a_traced_run():
    before = originals()
    traced()
    assert originals() == before
    assert spans.installed_wrappers() == []


def test_wrappers_are_restored_when_the_run_raises():
    before = originals()
    with pytest.raises(RuntimeError):
        with spans.Recorder():
            raise RuntimeError("boom")
    assert originals() == before


def test_traced_run_reproduces_untraced_outputs():
    core, jobs = workloads.build_core(SMALL, seed=3)
    result, _ = workloads.replay(SMALL, core, jobs)
    _, traced_outputs = traced()
    assert traced_outputs == workloads.outputs(result)


def test_self_times_add_up_to_top_level_time():
    rec, _ = traced()
    assert sum(rec.self_ns.values()) == rec.top_ns
    assert len(rec.start) == sum(rec.calls.values())
    top = [i for i, p in enumerate(rec.parent) if p == -1]
    assert len(top) == len(set(rec.trace))
    assert all(rec.end[i] >= rec.start[i] for i in range(len(rec.start)))


def test_spans_are_written_as_columns(tmp_path):
    rec, _ = traced()
    path = tmp_path / "spans.npz"
    rec.dump(str(path))
    import numpy as np

    with np.load(path) as data:
        assert list(data["names"]) == list(spans.LAYERS)
        assert len(data["start_ns"]) == len(rec.start)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
                tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace-sns",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert "correct" not in json.loads(line)

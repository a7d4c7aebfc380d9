"""The BENCH_sim.json divergence gate of ``tools/bench_report.py``.

:func:`check_divergence` runs on hand-built report dicts here, so no
simulation is replayed: results must agree across every entry of a
grid, counters across entries that share a grid and a cache mode, and a
Fig 20 entry must carry exactly the ``COUNTER_NAMES`` counters.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.perfmodel.context import COUNTER_NAMES

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_report.py"
_SPEC = importlib.util.spec_from_file_location("bench_report", _PATH)
bench_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_report)


def config(makespan=100.0, **counters):
    return {
        "policy": "SNS",
        "nodes": 4096,
        "ratio": 0.9,
        "makespan": makespan,
        "mean_turnaround": 10.0,
        "counters": {**dict.fromkeys(COUNTER_NAMES, 7), **counters},
    }


def entry(caches=True, grid=bench_report.SMOKE_GRID, **kwargs):
    return {"grid": grid, "caches": caches, "configs": [config(**kwargs)]}


def test_identical_entries_pass():
    report = {"a": entry(), "b": entry(), "ref": entry(caches=False)}
    assert bench_report.check_divergence(report) == []


def test_counter_mismatch_within_cache_mode_flagged():
    report = {"a": entry(), "b": entry(nodes_scanned=8)}
    problems = bench_report.check_divergence(report)
    assert len(problems) == 1
    assert "counters" in problems[0] and "nodes_scanned" in problems[0]


def test_counter_mismatch_across_cache_modes_not_flagged():
    report = {"a": entry(), "ref": entry(caches=False, nodes_scanned=8)}
    assert bench_report.check_divergence(report) == []


def test_counter_mismatch_across_grids_not_flagged():
    report = {"a": entry(),
              "full": entry(grid=bench_report.FULL_GRID, nodes_scanned=8)}
    assert bench_report.check_divergence(report) == []


def test_results_mismatch_across_cache_modes_flagged():
    report = {"a": entry(), "ref": entry(caches=False, makespan=101.0)}
    problems = bench_report.check_divergence(report)
    assert len(problems) == 1
    assert "101.0" in problems[0]


@pytest.mark.parametrize("grid", [bench_report.SMOKE_GRID,
                                  bench_report.FULL_GRID])
def test_fig20_entry_missing_a_counter_flagged(grid):
    lone = entry(grid=grid)
    del lone["configs"][0]["counters"][COUNTER_NAMES[-1]]
    problems = bench_report.check_divergence({"a": lone})
    assert len(problems) == 1
    assert COUNTER_NAMES[-1] in problems[0]


def test_fig20_entry_extra_counter_flagged():
    problems = bench_report.check_divergence({"a": entry(renamed=1)})
    assert len(problems) == 1 and "renamed" in problems[0]


def test_other_grids_keep_their_own_counters():
    oversub = {"grid": "fig-oversub 64n", "configs": [{
        "policy": "SNS", "nodes": 64, "ratio": 1.0, "makespan": 9.0,
        "mean_turnaround": 4.0, "counters": {"fabric_route_evals": 3},
    }]}
    assert bench_report.check_divergence({"fig-oversub": oversub}) == []
    changed = {**oversub, "configs": [{
        **oversub["configs"][0], "counters": {"fabric_route_evals": 4}}]}
    assert len(bench_report.check_divergence(
        {"fig-oversub": oversub, "ci": changed})) == 1

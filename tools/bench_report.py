#!/usr/bin/env python3
"""Bit-identity gates on the Fig 20 trace replays.

Replays the fixed smoke-trace grid — 2 scaling ratios x 2 cluster sizes
x {CE, SNS} on ``smoke_trace_config()`` — and merges the results into
``BENCH_sim.json`` at the repo root:

    PYTHONPATH=src python tools/bench_report.py [--label after]
    PYTHONPATH=src python tools/bench_report.py --no-caches --label ref
    PYTHONPATH=src python tools/bench_report.py --jobs 2
    PYTHONPATH=src python tools/bench_report.py --trace-gate

Each entry records, per configuration, the simulated events, the
makespan and mean turnaround, and every run counter in
:data:`~repro.perfmodel.context.COUNTER_NAMES` (DESIGN.md §7).  All of
these are deterministic, so after each run this script cross-checks
every entry in BENCH_sim.json and **exits non-zero (2) on any
divergence** (:func:`check_divergence`): a fast path, a parallel run or
a tracer that changes a result or a counter is a bug, and CI treats it
as one.  A real counter change is accepted by regenerating the entry
under its own label.

Timing is not measured here: ``perfbench/`` (declared by
``BENCHMARK.json``) times the same core over alternating pairs with
bounded end-to-end metrics and per-layer spans.  The one wall-clock
check left is the tracer's overhead budget, measured inside
``--trace-gate`` and never written to BENCH_sim.json.

``--jobs N`` fans the grid out over N worker processes
(:func:`repro.experiments.parallel.run_grid`): every simulation owns a
private :class:`~repro.perfmodel.context.PerfContext`, so parallel
entries must match serial ones exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import SimConfig, TraceConfig         # noqa: E402
from repro.experiments.common import run_all_policies   # noqa: E402
from repro.experiments.fig20_large_cluster import (     # noqa: E402
    smoke_trace_config,
)
# Renamed import: this script's own run_grid() is the grid driver.
from repro.experiments.parallel import (                # noqa: E402
    run_grid as run_grid_tasks,
)
from repro.hardware.topology import ClusterSpec         # noqa: E402
from repro.obs import verify_trace, write_chrome_trace  # noqa: E402
from repro.perfmodel.context import COUNTER_NAMES       # noqa: E402
from repro.workloads.trace import (                     # noqa: E402
    SyntheticTraceConfig,
    synthesize_trace,
)

#: The smoke grid (fixed: changing it would break comparability).
RATIOS = (0.9, 0.5)
SIZES = (4096, 8192)
POLICIES = ("CE", "SNS")
SEED = 42
SMOKE_GRID = "fig20-smoke 2x2x2"

#: The full-scale grid (``--full``): the paper's headline Fig 20
#: configuration — the complete 7,044-job Trinity-like trace on the
#: 32,768-node cluster at scaling ratio 0.9 — under both policies.
FULL_RATIOS = (0.9,)
FULL_SIZES = (32768,)
FULL_GRID = "fig20-full 32k"

#: Full tracing may cost at most this factor in grid wall-clock
#: (DESIGN.md §10 overhead budget; the trace gate exits 3 beyond it).
TRACE_OVERHEAD_LIMIT = 1.10


def _run_one(task: tuple) -> Tuple[dict, float]:
    """One grid point: an independent simulation with a private
    PerfContext (``SimConfig.perf_caches`` picks the cache mode), so
    it can run in any worker process.  Returns the config entry and the
    simulation's wall seconds (used by the trace gate only).

    With ``trace=True`` the run carries a full-level tracer (the
    maximum-observability configuration: every record kind plus the
    time-series collector); the resulting trace is replayed through the
    invariant checker after the timed region, and optionally exported
    as a Chrome trace (``chrome_out``)."""
    ratio, nodes, policy, jobs, caches, trace, chrome_out = task
    cluster = ClusterSpec(num_nodes=nodes)
    trace_config = TraceConfig(level="full") if trace else None
    start = time.perf_counter()
    runs = run_all_policies(
        cluster, jobs, policy_names=(policy,),
        sim_config=SimConfig(telemetry=False, max_sim_time=1e12,
                             perf_caches=caches, trace=trace_config),
    )
    wall = time.perf_counter() - start
    result = runs[policy]
    entry = {
        "policy": policy,
        "nodes": nodes,
        "ratio": ratio,
        "events": result.events,
        "makespan": result.makespan,
        "mean_turnaround": result.mean_turnaround(),
        "counters": {key: result.counters[key] for key in COUNTER_NAMES},
    }
    if trace:
        tracer = result.trace
        assert tracer is not None
        verify_trace(tracer.events,
                     label=f"{policy}/{nodes}/{ratio}")
        entry["trace_records"] = len(tracer.events)
        if chrome_out:
            write_chrome_trace(tracer.events, chrome_out,
                               tracer.timeseries)
    return entry, wall


def run_grid(caches: bool = True, jobs: int = 1, verbose: bool = True,
             trace: bool = False, chrome_out: Optional[str] = None,
             full: bool = False) -> Tuple[dict, float]:
    """Run the smoke grid once; returns the BENCH_sim entry payload and
    the summed per-config simulation wall seconds.

    ``jobs > 1`` fans the grid points out over that many worker
    processes; the per-config results are bit-identical to a serial run
    by the state-ownership contract (DESIGN.md §9).  ``trace=True`` runs every
    grid point with a full-level tracer and replays each trace through
    the invariant checker; ``chrome_out`` additionally exports the first
    SNS config's Chrome trace.  ``full=True`` swaps in the full-scale
    Fig 20 grid (complete Trinity-like trace, 32K nodes)."""
    if full:
        trace_config = SyntheticTraceConfig()
        ratios, sizes, grid_name = FULL_RATIOS, FULL_SIZES, FULL_GRID
    else:
        trace_config = smoke_trace_config()
        ratios, sizes, grid_name = RATIOS, SIZES, SMOKE_GRID
    tasks: List[list] = []
    for ratio in ratios:
        trace_jobs = synthesize_trace(seed=SEED, scaling_ratio=ratio,
                                      config=trace_config)
        for nodes in sizes:
            for policy in POLICIES:
                tasks.append([ratio, nodes, policy, trace_jobs, caches,
                              trace, None])
    if chrome_out is not None:
        for task in tasks:
            if task[2] == "SNS":
                task[6] = chrome_out
                break
    tasks = [tuple(t) for t in tasks]
    outcomes = run_grid_tasks(_run_one, tasks, jobs=jobs)
    configs = [config for config, _ in outcomes]
    if verbose:
        for c in configs:
            print(f"  {c['policy']:3s} {c['nodes']:5d} nodes "
                  f"ratio {c['ratio']}: {c['events']} events  "
                  f"makespan {c['makespan']:.1f}")
    entry = {
        "grid": grid_name,
        "caches": caches,
        "jobs": jobs,
        "trace": trace,
        "total_events": sum(c["events"] for c in configs),
        "configs": configs,
    }
    return entry, sum(wall for _, wall in outcomes)


def _diff(new: dict, old: dict) -> dict:
    """The counters on which two configs disagree, as (new, old)."""
    return {key: (new.get(key), old.get(key))
            for key in sorted(new.keys() | old.keys())
            if new.get(key) != old.get(key)}


def check_divergence(report: dict) -> List[str]:
    """Cross-check every entry of ``report`` against every other.

    All entries of one grid replay the same traces with the same seed,
    so their per-configuration makespans and mean turnarounds must
    agree exactly — fast paths are contractually bit-identical to the
    reference, and parallel and traced runs to serial ones.  The
    counters are deterministic too, but the cache mode changes some of
    them, so they must agree across entries that share a grid and a
    ``caches`` value.  A Fig 20 entry must carry exactly the
    :data:`COUNTER_NAMES` counters, so adding or renaming a counter
    forces its regeneration.  Returns human-readable divergence
    descriptions (empty when everything matches).
    """
    results: Dict[tuple, tuple] = {}
    counters: Dict[tuple, tuple] = {}
    problems: List[str] = []
    for name, entry in report.items():
        grid = entry.get("grid", "?")
        for config in entry.get("configs", []):
            point = (config["policy"], config["nodes"], config["ratio"])
            found = config.get("counters", {})
            if grid in (SMOKE_GRID, FULL_GRID) \
                    and found.keys() != set(COUNTER_NAMES):
                problems.append(
                    f"{point}: '{name}' counters missing "
                    f"{sorted(set(COUNTER_NAMES) - found.keys())}, extra "
                    f"{sorted(found.keys() - set(COUNTER_NAMES))}; "
                    f"regenerate the entry"
                )
            outcome = (config["makespan"], config["mean_turnaround"])
            known = results.setdefault((grid, point), (name, outcome))
            if known[1] != outcome:
                problems.append(
                    f"{point}: '{name}' {outcome} != '{known[0]}' {known[1]}"
                )
            known = counters.setdefault(
                (grid, entry.get("caches"), point), (name, found))
            if known[1] != found:
                problems.append(
                    f"{point} counters: '{name}' != '{known[0]}' "
                    f"(new, old): {_diff(found, known[1])}"
                )
    return problems


def _fatal(title: str, problems: List[str]) -> int:
    """Print a failed gate's mismatches; returns exit status 2."""
    print(f"FATAL: {title} ({len(problems)} mismatches):", file=sys.stderr)
    for line in problems:
        print(f"  {line}", file=sys.stderr)
    return 2


def _merge(path: Path, label: str, entry: dict) -> int:
    """Gate ``entry`` against every entry in ``path``, then write it
    there under ``label``; returns the exit status."""
    report = json.loads(path.read_text()) if path.exists() else {}
    report[label] = entry
    problems = check_divergence(report)
    if problems:
        _fatal("results diverge between entries", problems)
        print("not writing BENCH_sim.json — fix the divergence first",
              file=sys.stderr)
        return 2
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


def run_trace_gate(args: argparse.Namespace) -> int:
    """The tracer-overhead gate (``--trace-gate``).

    Runs the smoke grid twice — untraced, then with full-level tracing —
    and enforces the DESIGN.md §10 observability contract:

    * traced results and counters are **bit-identical** to untraced
      ones (and to the committed BENCH_sim.json entries) — exit 2 on
      divergence;
    * every traced config's record stream passes the invariant replay
      (:func:`repro.obs.verify_trace` raises inside the worker);
    * the traced grid costs at most ``TRACE_OVERHEAD_LIMIT`` x the
      untraced wall-clock — exit 3 beyond the budget.

    Results are compared in memory only; nothing is written to
    BENCH_sim.json (the gate is not a baseline).
    """
    print("trace gate: smoke grid untraced vs --trace-level full ...")
    # Two repetitions per pass, best total kept: the walls being
    # compared differ by less than run-to-run machine noise, so a
    # single-shot ratio would make the gate flaky.
    best: Dict[str, Tuple[dict, float]] = {}
    for rep in range(2):
        for name, trace in (("untraced", False), ("traced-full", True)):
            print(f"{name} pass {rep + 1}:")
            run = run_grid(caches=True, verbose=rep == 0, trace=trace,
                           chrome_out=args.chrome_out if trace else None)
            print(f"  total {run[1]:.2f}s")
            if name not in best or run[1] < best[name][1]:
                best[name] = run

    report = {name: entry for name, (entry, _) in best.items()}
    path = Path(args.output)
    if path.exists():
        for name, entry in json.loads(path.read_text()).items():
            report.setdefault(f"bench:{name}", entry)
    problems = check_divergence(report)
    if problems:
        return _fatal("tracing changed results", problems)

    configs = report["traced-full"]["configs"]
    records = sum(c["trace_records"] for c in configs)
    print(f"invariant replay: OK on {len(configs)} configs "
          f"({records} trace records)")
    if args.chrome_out:
        print(f"wrote Chrome trace artifact to {args.chrome_out}")
    overhead = best["traced-full"][1] / best["untraced"][1]
    print(f"tracer overhead: {overhead:.3f}x "
          f"(budget {TRACE_OVERHEAD_LIMIT:.2f}x)")
    if overhead > TRACE_OVERHEAD_LIMIT:
        print("FATAL: full tracing exceeds the wall-clock overhead "
              "budget", file=sys.stderr)
        return 3
    print("trace gate passed")
    return 0


def run_oversub_gate(args: argparse.Namespace) -> int:
    """``--oversub-gate``: the leaf-spine fabric smoke entry.

    Runs the fig_oversub sweep (CE/CS/SNS/locality-aware SNS while ToR
    oversubscription sweeps 1:1 → 8:1 on the default 64-node, rack-of-4
    cluster) and enforces two contracts:

    * **flat-degenerate bit-identity** — every 1:1 point must reproduce
      the same variant replayed on a fabric-less ``ClusterSpec``
      exactly (exit 2 on divergence);
    * **locality divergence** — at the top swept ratio, locality-aware
      SNS must evaluate strictly fewer fabric routes than plain SNS (it
      fills racks before crossing the spine), so the knob failing to
      change placements turns the gate red rather than passing quietly.

    The grid, with the fabric link counters alongside the headline
    numbers, is then merged into BENCH_sim.json under ``--label``
    (default ``fig-oversub``) and gated against every entry already
    there (exit 2 on divergence).  The default label replaces the
    committed ``fig-oversub`` entry before that comparison, so a run
    that must match it passes another label, as CI does with
    ``--label fig-oversub-ci``.
    """
    from repro.experiments.fig_oversub import (
        N_JOBS, NUM_NODES as OV_NODES, PROGRAMS, SEED as OV_SEED,
        VARIANTS, _variant_config, format_fig_oversub, run_fig_oversub,
    )
    from repro.workloads.sequences import random_sequence

    print("oversub gate: fig_oversub sweep "
          f"({OV_NODES} nodes, {N_JOBS} jobs) ...")
    result = run_fig_oversub()
    print(format_fig_oversub(result))

    # Flat-degenerate contract: a 1:1 fabric must be indistinguishable
    # from no fabric at all, bit for bit.
    sequence = random_sequence(seed=OV_SEED, n_jobs=N_JOBS,
                               program_names=PROGRAMS)
    problems = []
    ratios = sorted({p.oversub for p in result.points})
    for variant in VARIANTS:
        policy, sched_config = _variant_config(variant)
        flat = run_all_policies(
            ClusterSpec(num_nodes=OV_NODES), sequence,
            policy_names=(policy,), scheduler_config=sched_config,
            sim_config=SimConfig(telemetry=False),
        )[policy]
        point = result.get(ratios[0], variant)
        if (point.makespan, point.mean_turnaround) != \
                (flat.makespan, flat.mean_turnaround()):
            problems.append(
                f"{variant} at {ratios[0]:g}:1: "
                f"({point.makespan}, {point.mean_turnaround}) != flat "
                f"({flat.makespan}, {flat.mean_turnaround()})"
            )
    if problems:
        return _fatal("1:1 fabric diverges from the flat network",
                      problems)

    top = ratios[-1]
    sns = result.get(top, "SNS")
    loc = result.get(top, "SNS+loc")
    print(f"locality divergence at {top:g}:1: SNS {sns.route_evals} "
          f"route evals vs SNS+loc {loc.route_evals}")
    if not loc.route_evals < sns.route_evals:
        print("FATAL: locality-aware SNS does not reduce fabric route "
              "evaluations — the locality knob changed nothing",
              file=sys.stderr)
        return 2

    entry = {
        "grid": f"fig-oversub {OV_NODES}n",
        "configs": [
            {
                "policy": p.variant,
                "nodes": OV_NODES,
                "ratio": p.oversub,
                "makespan": p.makespan,
                "mean_turnaround": p.mean_turnaround,
                "counters": {
                    "fabric_link_refreshes": p.link_refreshes,
                    "fabric_route_evals": p.route_evals,
                },
            }
            for p in result.points
        ],
    }
    status = _merge(Path(args.output), args.label or "fig-oversub", entry)
    if status == 0:
        print("oversub gate passed")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default=None,
                        help="entry name in BENCH_sim.json "
                             "(default: current, or jobsN)")
    parser.add_argument("--no-caches", action="store_true",
                        help="run the unmemoized reference path")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run the grid on N worker processes and "
                             "gate bit-identity against serial entries")
    parser.add_argument("--full", action="store_true",
                        help="run the full-scale Fig 20 grid instead of "
                             "the smoke grid: the complete 7,044-job "
                             "Trinity-like trace on 32,768 nodes")
    parser.add_argument("--trace-gate", action="store_true",
                        help="gate the observability layer: run the grid "
                             "untraced and fully traced, require "
                             "bit-identical results, passing invariant "
                             "replay, and <= 10%% wall-clock overhead")
    parser.add_argument("--chrome-out", default=None, metavar="PATH",
                        help="with --trace-gate: export one traced "
                             "config's Chrome trace_event file (CI "
                             "artifact)")
    parser.add_argument("--oversub-gate", action="store_true",
                        help="run the fig_oversub fabric sweep, gate the "
                             "flat-degenerate bit-identity contract and "
                             "the locality divergence, and merge the "
                             "entry into BENCH_sim.json (exit 2 on any "
                             "divergence)")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_sim.json"))
    args = parser.parse_args(argv)

    if args.trace_gate:
        return run_trace_gate(args)
    if args.oversub_gate:
        return run_oversub_gate(args)

    caches = not args.no_caches
    label: Optional[str] = args.label
    if label is None:
        label = f"jobs{args.jobs}" if args.jobs > 1 else "current"
        if args.full:
            label = "fig20-full" if label == "current" \
                else f"fig20-full-{label}"
    mode = f"{args.jobs} processes" if args.jobs > 1 else "serial"
    scale = "full" if args.full else "smoke"
    print(f"replaying fig20 {scale} grid "
          f"(caches {'on' if caches else 'off'}, {mode}) ...")
    entry, _ = run_grid(caches=caches, jobs=args.jobs, full=args.full)
    print(f"total: {entry['total_events']} events")
    return _merge(Path(args.output), label, entry)


if __name__ == "__main__":
    sys.exit(main())

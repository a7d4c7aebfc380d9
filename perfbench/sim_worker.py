"""One worker process of a simulator workload.

Prints ``ready`` once its imports, inputs and first core are built (the
parent times set-up up to that line), then replays the workload as
many times as comes closest to its time budget (at least once) and
prints one JSON line of samples.

With ``--trace 1`` it alternates an untraced and a traced replay of the
same inputs; each traced replay reports per-layer metrics and must
reproduce the untraced outputs exactly.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def sample(spec, core, jobs) -> dict:
    """One timed replay on a prepared core."""
    t0 = time.perf_counter()
    result, ops = workloads.replay(spec, core, jobs)
    wall = time.perf_counter() - t0
    return {
        "wall": wall,
        "events": result.events,
        "jobs": len(jobs),
        "op_p50_ms": stats.percentile(ops, 0.50) / 1e6,
        "op_p99_ms": stats.percentile(ops, 0.99) / 1e6,
        "cost_growth": stats.cost_growth(ops),
        "outputs": workloads.outputs(result),
        "counters": result.counters,
    }


def traced_sample(spec, seed: int, spans_path: str) -> dict:
    """One replay with every layer boundary wrapped."""
    core, jobs = workloads.build_core(spec, seed)
    with spans.Recorder() as rec:
        s = sample(spec, core, jobs)
    m = spans.core_metrics(rec, s.pop("counters"), core.ctx.cache_stats())
    m["trace.coverage"] = rec.top_ns / 1e9 / s["wall"]
    s["layers"] = m
    s["spans"] = len(rec.start)
    if spans_path:
        rec.dump(spans_path)
    return s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SIM_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="",
                        help="write the last traced replay's spans here")
    args = parser.parse_args()
    spec = workloads.SIM_WORKLOADS[args.workload]

    core, jobs = workloads.build_core(spec, args.seed)
    print("ready", flush=True)
    replays, traced = [], []
    spent = 0.0
    runs = None
    while True:
        s = sample(spec, core, jobs)
        s.pop("counters")
        replays.append(s)
        spent += s["wall"]
        if args.trace:
            t = traced_sample(spec, args.seed, args.spans)
            t["layers"]["trace.overhead"] = t["wall"] / s["wall"]
            t["layers"]["scheduling.cost_growth"] = s["cost_growth"]
            traced.append(t)
            spent += t["wall"]
        if runs is None:
            # As many replays as come closest to the budget.
            runs = max(1, round(args.budget / spent))
        if len(replays) >= runs:
            break
        # Free the used core before building the next, so the peak
        # memory is that of one replay however many replays run.
        core = jobs = None
        gc.collect()
        core, jobs = workloads.build_core(spec, args.seed)
    leftover = spans.installed_wrappers()
    print(json.dumps({
        "replays": replays,
        "traced": traced,
        "peak_rss_mb": stats.peak_rss_mb(),
        "leftover_wrappers": leftover,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository's benchmark: SNS simulator and live master.

    python3 perfbench/run.py --workload trace-sns --seed 1 --seconds 20 --trace 0

Runs one workload for about ``--seconds`` seconds, checks its simulated
outputs (against pinned values for the seeds in ``pinned.json``), and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the traced variant and reports the
per-layer metrics.  The full result, with provenance, is also written
to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Named here rather than read from workloads.py, which imports the
# program: the arguments are checked before the program is looked for.
WORKLOADS = ("trace-sns", "trace-ce-fabric", "stream-backlog",
             "service-openloop")

#: End-to-end metrics and their units, reported by every untraced run.
END_TO_END = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

#: Untraced simulator runs use this many worker processes in sequence,
#: each one set-up sample and a third of the time budget.
SIM_WORKERS = 3
WORKER_TIMEOUT_S = 170.0


def fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_digest() -> str:
    """SHA-256 over the program's source files, a commit id that also
    works in a checkout without git metadata."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: a machine-speed
    normalizer for comparing results across hosts."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


def provenance() -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "date": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "calibration_s": calibration_s(),
    }


# -- simulator workloads ------------------------------------------------------

def sim_worker(workload: str, seed: int, budget: float, trace: bool,
               spans_path: str) -> Tuple[float, dict]:
    """Run one worker process; returns its set-up time (spawn to its
    ``ready`` line) and its report."""
    cmd = [sys.executable, os.path.join(HERE, "sim_worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--budget", repr(budget), "--trace", str(int(trace))]
    if spans_path:
        cmd += ["--spans", spans_path]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if ready.strip() != "ready":
            raise RuntimeError(f"{workload} worker failed during set-up")
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    return setup, json.loads(rest.strip().splitlines()[-1])


def run_sim(args, pinned: dict, spans_path: str) -> dict:
    if args.trace:
        setups_reports = [sim_worker(args.workload, args.seed, args.seconds,
                                     True, spans_path)]
    else:
        budget = args.seconds / SIM_WORKERS
        setups_reports = [
            sim_worker(args.workload, args.seed, budget, False, "")
            for _ in range(SIM_WORKERS)
        ]
    reports = [r for _, r in setups_reports]
    replays = [s for r in reports for s in r["replays"]]
    traced = [s for r in reports for s in r["traced"]]
    runs = replays + traced
    problems = check_outputs(args.workload, args.seed, pinned,
                             [s["outputs"] for s in runs],
                             expected_finished=runs[0]["jobs"])
    problems += [f"wrapper left installed: {w}" for r in reports
                 for w in r["leftover_wrappers"]]
    attempted = sum(s["jobs"] for s in runs)
    failed = attempted if problems else sum(
        s["jobs"] - s["outputs"]["finished"] for s in runs)
    if args.trace:
        metrics = median_layers([s["layers"] for s in traced])
        for q in ("op_p50_ms", "op_p99_ms"):
            metrics[f"loadgen.{q}"] = stats.median([s[q] for s in replays])
    else:
        metrics = {
            "setup_s": stats.median([t for t, _ in setups_reports]),
            "events_per_s": stats.median(
                [s["events"] / s["wall"] for s in replays]),
            "peak_rss_mb": stats.median([r["peak_rss_mb"] for r in reports]),
        }
    samples = [{k: v for k, v in s.items() if k != "layers"} for s in runs]
    return {"problems": problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "samples": samples}


# -- service workload ---------------------------------------------------------

def run_service(args, pinned: dict, spans_path: str) -> dict:
    import service_bench

    sessions = service_bench.run_sessions(args.seed, args.seconds,
                                          bool(args.trace), spans_path)
    plain, traced = sessions["plain"], sessions["traced"]
    runs = plain + traced
    if not sessions["complete"]:
        # A shortened run sends a prefix of the population, which the
        # pinned outputs do not describe.
        pinned = {}
    problems = check_outputs(
        "service-openloop", args.seed, pinned,
        [dict(s["outputs"], placed=s["placed"]) for s in runs],
        expected_finished=runs[0]["attempted"])
    for s in runs:
        out = s["outputs"]
        if out["finished"] is None \
                or out["finished"] + out["failed"] != s["accepted"]:
            problems.append("drain did not account for every submission")
        if s["placed"] != s["attempted"]:
            problems.append(f"{s['attempted'] - s['placed']} submissions "
                            f"never placed")
    problems += [f"wrapper left installed: {w}" for s in runs
                 for w in s["leftover_wrappers"]]
    attempted = sum(s["attempted"] for s in runs)
    failed = attempted if problems else sum(
        s["attempted"] - s["outputs"]["finished"] for s in runs)
    if args.trace:
        (u,), (t,) = plain, traced
        metrics = dict(t["layers"])
        metrics["scheduling.cost_growth"] = u["cost_growth"]
        metrics["loadgen.op_p50_ms"] = u["op_p50_ms"]
        metrics["loadgen.op_p99_ms"] = u["op_p99_ms"]
        metrics["service.place_p50_ms"] = u["place_p50_ms"]
        metrics["service.place_p99_ms"] = u["place_p99_ms"]
        metrics["loadgen.lateness_max_ms"] = max(u["lateness_max_ms"],
                                                 t["lateness_max_ms"])
        metrics["trace.overhead"] = (
            (t["cpu_s"] / t["events"]) / (u["cpu_s"] / u["events"]))
    else:
        metrics = {
            "setup_s": stats.median(
                sessions["setups"] + [s["setup_s"] for s in plain]),
            "events_per_s": stats.median([s["events_per_s"] for s in plain]),
            "peak_rss_mb": stats.median([s["peak_rss_mb"] for s in plain]),
        }
    samples = [{k: v for k, v in s.items() if k != "layers"} for s in runs]
    return {"problems": problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "samples": samples}


# -- checks and assembly -------------------------------------------------------

def median_layers(per_replay: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: stats.median([m[key] for m in per_replay])
            for key in per_replay[0]}


def check_outputs(workload: str, seed: int, pinned: dict,
                  outputs: List[dict], expected_finished: int) -> List[str]:
    """Every replay of one seed must give identical simulated outputs,
    finish every job, and match the pinned outputs when the seed has
    them."""
    problems = []
    first = outputs[0]
    if any(o != first for o in outputs[1:]):
        problems.append(f"replays disagree: {outputs}")
    if first["finished"] != expected_finished:
        problems.append(f"{first['finished']} of {expected_finished} "
                        f"jobs finished")
    want = pinned.get(workload, {}).get(str(seed))
    if want is not None:
        got = {key: first.get(key) for key in want}
        if got != want:
            problems.append(f"outputs {got} differ from pinned {want}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail_setup("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return fail_setup(f"the program's source is missing under {SRC}")
    sys.path.insert(0, SRC)
    with open(os.path.join(HERE, "pinned.json")) as fh:
        pinned = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(OUT, f"spans-{tag}.npz") if args.trace else ""

    prov = provenance()
    print(json.dumps({"provenance": prov}), flush=True)
    if args.workload == "service-openloop":
        res = run_service(args, pinned, spans_path)
    else:
        res = run_sim(args, pinned, spans_path)
    for problem in res["problems"]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)

    metrics = dict(res["metrics"])
    if args.trace:
        import spans

        units = spans.PER_LAYER_METRICS
        metrics = {name: metrics.get(name, 0) for name in units}
    else:
        units = END_TO_END
        metrics["ok_frac"] = (res["attempted"] - res["failed"]) \
            / res["attempted"]
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "provenance": prov,
                   "problems": res["problems"], "samples": res["samples"],
                   **result}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

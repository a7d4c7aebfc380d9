"""The benchmark's launcher for the live master (``repro-sns serve``).

Builds the same service ``repro-sns serve --policy SNS --nodes 512``
builds, prints ``listening <port>`` once the socket accepts, and serves
until a ``shutdown`` request.  It then prints one JSON line: its peak
memory and, with ``--trace 1``, the per-layer metrics of everything it
served.  Starting the master here rather than through the CLI lets the
traced run install the same layer wrappers inside the server process.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.config import SimConfig  # noqa: E402
from repro.hardware.topology import ClusterSpec  # noqa: E402
from repro.service import SchedulerMaster  # noqa: E402
from repro.sim.runtime import SchedulerCore  # noqa: E402

import spans  # noqa: E402
import stats  # noqa: E402

#: Large enough that each submission is placed at its own submit event,
#: so the service's latencies measure service time, not queueing.
NODES = 512


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="",
                        help="write the traced spans here")
    args = parser.parse_args()

    core = SchedulerCore.from_policy_name(
        "SNS", ClusterSpec(num_nodes=NODES),
        sim_config=SimConfig(telemetry=False),
    )
    master = SchedulerMaster(core)
    rec = spans.Recorder() if args.trace else None

    def ready(address) -> None:
        print(f"listening {address[1]}", flush=True)

    if rec is not None:
        rec.install()
    cpu0 = time.process_time()
    try:
        asyncio.run(master.serve("127.0.0.1", 0, ready=ready))
    finally:
        if rec is not None:
            rec.restore()
    cpu = time.process_time() - cpu0
    report = {"peak_rss_mb": stats.peak_rss_mb()}
    if rec is not None:
        m = spans.core_metrics(rec, core.peek_result().counters,
                               core.ctx.cache_stats())
        m["service.accepted"] = master.accepted
        m["service.rejected_retryable"] = master.rejected
        m["trace.coverage"] = rec.top_ns / 1e9 / cpu
        report["layers"] = m
        report["leftover_wrappers"] = spans.installed_wrappers()
        if args.spans:
            rec.dump(args.spans)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

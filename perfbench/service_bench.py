"""The ``service-openloop`` workload: one client, one connection, an
open loop against the live master in its own process.

Each session starts a fresh server (set-up is timed from spawning it
to the reply of a ``ping`` on the accepted connection), sends the
session's submissions on a fixed schedule without waiting for replies
(the line protocol answers in order), then drains the master, reads
its submit->place latencies and shuts it down.
"""

from __future__ import annotations

import collections
import json
import os
import socket
import subprocess
import sys
import time
from typing import List, Optional

from repro.service import protocol

import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RATE = 500.0            # submissions per second
#: Ack latency percentiles are taken per window of this many
#: submissions and reported as the median over windows, so one stall
#: of the shared host moves one window, not the run.
WINDOW = 1000
#: Servers started only to time set-up, besides the measured one.
SETUP_PROBES = 3
START_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 60.0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Connection:
    """A line-protocol connection that can send without waiting."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def receive(self) -> List[dict]:
        """The replies that have arrived; waits for data unless the
        socket is non-blocking."""
        try:
            chunk = self.sock.recv(1 << 16)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError("service closed the connection")
        self._buf += chunk
        *lines, self._buf = self._buf.split(b"\n")
        return [protocol.decode(line) for line in lines if line]

    def request(self, payload: dict) -> dict:
        self.send(protocol.encode(payload))
        got: List[dict] = []
        while not got:
            got = self.receive()
        if len(got) != 1:
            raise ConnectionError("unexpected extra replies")
        return got[0]

    def close(self) -> None:
        self.sock.close()


def open_loop(conn: Connection, frames: List[bytes]) -> dict:
    """Send ``frames`` at :data:`RATE` per second; time each one from
    its due time to its accepting reply.  A retryable rejection is sent
    again at once and keeps its first due time.

    The loop busy-polls instead of sleeping.  On a virtual machine whose
    CPUs all idle, waking a sleeper can take milliseconds: a process
    sleeping 2 ms overslept by up to 16 ms (p99 1.5 ms) on a 2-vCPU
    virtual machine, and by at most 4 ms (p99 0.26 ms) while another
    process spun.  A spinning client keeps the machine awake, so the
    latencies measure the master rather than the host's wake-ups."""
    n = len(frames)
    t0 = time.perf_counter() + 0.05
    due = [t0 + i / RATE for i in range(n)]
    ack_ms: List[Optional[float]] = [None] * n
    in_flight: collections.deque = collections.deque()
    next_i = 0
    lateness = 0.0
    refused = rejected = answered = 0
    clock = time.perf_counter
    conn.sock.setblocking(False)
    try:
        while answered < n:
            now = clock()
            if next_i < n and due[next_i] <= now:
                lateness = max(lateness, now - due[next_i])
                conn.send(frames[next_i])
                in_flight.append(next_i)
                next_i += 1
            replies = conn.receive()
            if not replies:
                last = due[next_i - 1] if next_i else t0
                if now - last > REPLY_TIMEOUT_S:
                    raise TimeoutError("no reply from the service")
                continue
            stamp = clock()
            for reply in replies:
                i = in_flight.popleft()
                if reply.get("ok"):
                    ack_ms[i] = (stamp - due[i]) * 1e3
                    answered += 1
                elif reply.get("retryable"):
                    rejected += 1
                    conn.send(frames[i])
                    in_flight.append(i)
                else:
                    refused += 1
                    answered += 1
    finally:
        conn.sock.settimeout(REPLY_TIMEOUT_S)
    return {"ack_ms": [a for a in ack_ms if a is not None],
            "refused": refused, "rejected": rejected,
            "lateness_max_ms": lateness * 1e3}


class Server:
    """One master process, started through ``server.py``; set-up is
    timed from spawning it to the reply of a ``ping``."""

    def __init__(self, trace: bool = False, spans_path: str = "") -> None:
        cmd = [sys.executable, os.path.join(HERE, "server.py"),
               "--trace", str(int(trace))]
        if spans_path:
            cmd += ["--spans", spans_path]
        t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.conn: Optional[Connection] = None
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.conn = Connection(int(line.split()[1]))
            self.conn.request({"op": "ping"})
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t_spawn

    def shutdown(self) -> dict:
        """Stop the server; returns the report it prints on exit."""
        try:
            self.conn.request({"op": "shutdown"})
            report = self.proc.stdout.readline()
            self.proc.wait(timeout=START_TIMEOUT_S)
        finally:
            self.close()
        return json.loads(report)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def session(jobs, *, trace: bool, spans_path: str = "") -> dict:
    """One server lifetime: start, open loop, drain, shut down."""
    frames = [
        protocol.encode({"op": "submit", "program": j.program.name,
                         "procs": j.procs, "job_id": j.job_id,
                         "submit_time": j.submit_time,
                         "work_multiplier": j.work_multiplier})
        for j in jobs
    ]
    server = Server(trace, spans_path)
    try:
        conn, pid = server.conn, server.proc.pid
        events0 = conn.request({"op": "stats"})["events"]
        cpu0 = proc_cpu_s(pid)
        loop = open_loop(conn, frames)
        cpu = proc_cpu_s(pid) - cpu0
        after = conn.request({"op": "stats"})
        summary = conn.request({"op": "drain"})
        lat = conn.request({"op": "latencies"})
    except BaseException:
        server.close()
        raise
    report = server.shutdown()
    events = after["events"] - events0
    acks = loop["ack_ms"]
    windows = [acks[i:i + WINDOW] for i in range(0, len(acks), WINDOW)]
    place = lat["latencies"]
    placed_ok = summary.get("ok", False) and lat["awaiting"] == 0
    return {
        "setup_s": server.setup_s,
        "events": events,
        "cpu_s": cpu,
        "events_per_s": events / cpu if cpu > 0 else 0.0,
        "op_p50_ms": stats.median(
            [stats.percentile(w, 0.50) for w in windows]),
        "op_p99_ms": stats.median(
            [stats.percentile(w, 0.99) for w in windows]),
        "place_p50_ms": stats.percentile(place, 0.50) * 1e3 if place else 0,
        "place_p99_ms": stats.percentile(place, 0.99) * 1e3 if place else 0,
        "lateness_max_ms": loop["lateness_max_ms"],
        "cost_growth": stats.cost_growth(acks),
        "attempted": len(jobs),
        "accepted": after["accepted"],
        "rejected": loop["rejected"],
        "refused": loop["refused"],
        "placed": lat["placed"] if placed_ok else 0,
        "outputs": {
            "makespan": summary.get("makespan"),
            "mean_turnaround": summary.get("mean_turnaround"),
            "finished": summary.get("finished"),
            "failed": summary.get("failed"),
        },
        "peak_rss_mb": report["peak_rss_mb"],
        "layers": report.get("layers"),
        "leftover_wrappers": report.get("leftover_wrappers", []),
    }


def run_sessions(seed: int, seconds: float,
                 trace: bool, spans_path: str) -> dict:
    """The untraced run: set-up probes, then one session whose open
    loop fills ``seconds``.  The traced run: an untraced and a traced
    session of the same jobs, each filling half of ``seconds``."""
    population = workloads.make_jobs("service", workloads.SERVICE_CONFIG,
                                     seed)
    share = seconds / 2 if trace else seconds
    jobs = population[:max(WINDOW, min(len(population), int(RATE * share)))]
    if trace:
        return {"complete": len(jobs) == len(population), "setups": [],
                "plain": [session(jobs, trace=False)],
                "traced": [session(jobs, trace=True,
                                   spans_path=spans_path)]}
    probes = []
    for _ in range(SETUP_PROBES):
        server = Server()
        probes.append(server.setup_s)
        server.shutdown()
    return {"complete": len(jobs) == len(population), "setups": probes,
            "plain": [session(jobs, trace=False)], "traced": []}

"""The live scheduler master (DESIGN.md §12).

An asyncio single-threaded service that wraps one
:class:`~repro.sim.runtime.SchedulerCore` behind the job-submission
protocol in :mod:`repro.service.protocol`.  The paper's prototype
(Uberun) is a long-running master daemon; this is its simulated twin —
clients stream submissions in over TCP and the simulated cluster
advances in *wall-clock-decoupled* mode: virtual time moves only when
the master steps the core, and the master only steps up to the
**watermark** — the highest virtual submit time it has accepted — so
simulated nodes never outrun the submission stream.

Structure::

    client conns ──> admission (bounded asyncio.Queue) ──> scheduler task
                                                               │
                                  SchedulerCore.submit / step <─┘
                                  audit log   = core.tracer (PR 5)
                                  latencies   = wall submit→start deltas

**Admission control.**  Each submission is validated in the connection
handler, stamped with its virtual submit time (clamped to the
non-decreasing watermark), and enqueued.  The queue is bounded; when it
is full the client gets ``{"ok": false, "retryable": true}`` — the
backpressure contract tested in tests/test_service.py.

**Determinism.**  Virtual submit times are assigned in arrival order at
the master, and the single scheduler task feeds the core in the same
order — so a streamed run is bit-identical to a batch
:meth:`~repro.sim.runtime.SchedulerCore.run` over the same jobs in the
same arrival order (the equivalence contract).

**Audit log.**  The master requires the core to carry a decision tracer
(it attaches one at ``decisions`` level if absent): every placement the
service makes is a ``start`` record in the trace, which doubles as the
submit→place latency source — the master stamps wall-clock submit times
at admission and reads placements off the trace after each stepping
round, so latency is measured entirely at the master.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.catalog import get_program
from repro.errors import ReproError
from repro.obs.trace import TraceLevel, Tracer
from repro.service import protocol
from repro.sim.job import Job, JobState
from repro.sim.runtime import SchedulerCore

#: Longest request or header line a connection may send (asyncio's
#: default stream limit, made explicit so the refusal can name it).
LINE_LIMIT = 2 ** 16


class _LineTooLong(Exception):
    """A request or header line ran past :data:`LINE_LIMIT`; ``head``
    keeps its first bytes so the encoding can still be sniffed."""

    def __init__(self, head: bytes) -> None:
        super().__init__(f"line exceeds {LINE_LIMIT} bytes")
        self.head = head


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """``reader.readline()``, except that a line longer than the stream
    limit is read to its end and dropped, then raised as
    :class:`_LineTooLong` (``readline`` raises a bare ``ValueError``
    and loses the line's head)."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        head = await reader.read(exc.consumed)
    # Drop the rest of the line, so closing the connection after the
    # refusal does not reset it under the reply.
    while True:
        try:
            await reader.readuntil(b"\n")
            break
        except asyncio.IncompleteReadError:
            break
        except asyncio.LimitOverrunError as exc:
            await reader.read(exc.consumed)
    raise _LineTooLong(head)


async def _refuse(writer: asyncio.StreamWriter, http: bool,
                  status: Tuple[int, str], message: str) -> None:
    """Send one final error reply in the connection's encoding; the
    caller closes the connection after it."""
    reply = protocol.error(message)
    writer.write(
        protocol.http_response(reply, status=status, keep_alive=False)
        if http else protocol.encode(reply)
    )
    await writer.drain()


class SchedulerMaster:
    """One service instance: a core, a bounded submission queue, and
    the TCP front door.  Construct, then either ``await serve()`` on an
    asyncio loop or use :func:`serve_in_thread` from synchronous code.
    """

    def __init__(
        self,
        core: SchedulerCore,
        *,
        queue_limit: int = 256,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if core.tracer is None:
            # The audit log is not optional: placements must be
            # observable for /latencies and post-hoc review.
            core.tracer = Tracer(level=TraceLevel.DECISIONS)
        self.core = core
        self.queue_limit = queue_limit
        self._clock = clock
        #: Highest virtual submit time accepted so far; submissions are
        #: clamped so this never decreases (events are never scheduled
        #: in the core's past).
        self.watermark = 0.0
        self._next_id = 0
        self._known_ids = set(core.jobs)
        #: job_id -> wall-clock admission stamp, consumed when the
        #: job's start record appears in the audit log.
        self._wall_submitted: Dict[int, float] = {}
        #: Completed submit→place latencies, seconds, placement order.
        self.latencies: List[float] = []
        self._audit_idx = 0
        self.accepted = 0
        self.rejected = 0
        #: Set when the core raised while scheduling (e.g. the deadlock
        #: liveness check tripped on an unschedulable job): the cluster
        #: state is no longer advanceable, so the service stops
        #: admitting and reports the fault on every subsequent request.
        self.fault: Optional[str] = None
        self._drained = False
        self._final_summary: Optional[dict] = None
        self.address: Optional[Tuple[str, int]] = None
        # Created inside serve() so the master binds to whatever loop
        # runs it (asyncio primitives are loop-affine).
        self._queue: Optional[asyncio.Queue] = None
        self._gate: Optional[asyncio.Event] = None
        self._stop: Optional[asyncio.Event] = None

    # ------------------------------------------------------------- serving

    async def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        ready: Optional[Callable[[Tuple[str, int]], None]] = None,
    ) -> None:
        """Run the service until a ``shutdown`` request arrives.

        ``ready`` is called with the bound ``(host, port)`` once the
        socket is listening (port 0 binds an ephemeral port).
        """
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._gate = asyncio.Event()
        self._gate.set()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._handle_conn, host, port,
                                            limit=LINE_LIMIT)
        sockname = server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        scheduler = asyncio.ensure_future(self._scheduler_task())
        if ready is not None:
            ready(self.address)
        try:
            await self._stop.wait()
        finally:
            scheduler.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await scheduler
            server.close()
            await server.wait_closed()

    def request_shutdown(self) -> None:
        """Ask the serve loop to exit (safe only from its own loop; use
        :meth:`ServiceHandle.stop` across threads)."""
        if self._stop is not None:
            self._stop.set()

    # ------------------------------------------------------ scheduler task

    async def _scheduler_task(self) -> None:
        """The single consumer: ingest admitted submissions in FIFO
        order, advance the core to the watermark, harvest placements.
        Stepping is synchronous (no ``await`` inside), so connection
        handlers never observe a half-stepped core."""
        queue = self._queue
        gate = self._gate
        assert queue is not None and gate is not None
        while True:
            await gate.wait()
            batch = [await queue.get()]
            while True:
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                for job, wall in batch:
                    self.core.submit(job)
                    self._wall_submitted[job.job_id] = wall
                self._advance(batch[-1][0].submit_time)
            except ReproError as exc:
                self.fault = str(exc)
            for _ in batch:
                queue.task_done()

    def _advance(self, bound: float) -> None:
        """Step the core while its next event is at or before ``bound``
        (the newest ingested submit time).  Events beyond the bound wait
        for later submissions or the final drain — this is the whole of
        wall-clock decoupling."""
        core = self.core
        while True:
            t = core.next_event_time()
            if t is None or t > bound:
                break
            if not core.step():
                break
        self._harvest_placements()

    def _harvest_placements(self) -> None:
        """Read new ``start`` records off the audit log and close the
        submit→place latency of each newly placed job."""
        events = self.core.tracer.events
        wall = self._clock()
        for record in events[self._audit_idx:]:
            if record["ev"] != "start":
                continue
            stamped = self._wall_submitted.pop(record["job"], None)
            if stamped is not None:
                self.latencies.append(wall - stamped)
        self._audit_idx = len(events)

    # ----------------------------------------------------------- admission

    def _admit(self, request: dict) -> dict:
        """Validate one submission and enqueue it; runs in the
        connection handler so rejections are immediate."""
        if self._drained:
            return protocol.error("service is drained; no new submissions")
        if self.fault is not None:
            return protocol.error(f"scheduler fault: {self.fault}")
        try:
            job = self._job_from_request(request)
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            return protocol.error(f"bad submission: {exc}")
        assert self._queue is not None
        try:
            self._queue.put_nowait((job, self._clock()))
        except asyncio.QueueFull:
            self.rejected += 1
            return protocol.error("submission queue full", retryable=True)
        # Only now is the id taken and the watermark moved: a rejected
        # submission leaves no trace and may be retried verbatim.
        self._known_ids.add(job.job_id)
        self._next_id = max(self._next_id, job.job_id + 1)
        self.watermark = job.submit_time
        self.accepted += 1
        return {
            "ok": True,
            "job_id": job.job_id,
            "submit_time": job.submit_time,
        }

    def _job_from_request(self, request: dict) -> Job:
        """Build the submitted job, refusing any the core could never
        run: a job it cannot place, or one dated past the horizon,
        would otherwise latch a fault for the whole service."""
        program = get_program(request["program"])
        job_id = request.get("job_id")
        if job_id is None:
            job_id = self._next_id
        job_id = int(job_id)
        if job_id in self._known_ids:
            raise ValueError(f"duplicate job id {job_id}")
        procs = request["procs"]
        if not isinstance(procs, int) or isinstance(procs, bool):
            raise ValueError(f"procs must be an integer, not {procs!r}")
        spec = self.core.cluster.spec
        need = spec.node.min_nodes_for(procs)
        limit = spec.num_nodes
        if program.max_nodes is not None:
            limit = min(limit, program.max_nodes)
        if need > limit:
            raise ValueError(
                f"{procs} processes need at least {need} nodes; "
                f"at most {limit} are available to {program.name}"
            )
        submit_time = float(request.get("submit_time", self.watermark))
        horizon = self.core.config.max_sim_time
        if not math.isfinite(submit_time) or submit_time > horizon:
            raise ValueError(
                f"submit_time must be finite and at most {horizon}"
            )
        work_multiplier = float(request.get("work_multiplier", 1.0))
        if not math.isfinite(work_multiplier):
            raise ValueError("work_multiplier must be finite")
        # Clamp to the watermark: virtual time cannot run backwards, so
        # a submission dated before an already-accepted one lands *at*
        # the watermark (the service analogue of "you cannot submit a
        # job yesterday").
        return Job(
            job_id=job_id,
            program=program,
            procs=procs,
            submit_time=max(self.watermark, submit_time),
            alpha=request.get("alpha"),
            work_multiplier=work_multiplier,
        )

    # ------------------------------------------------------------ requests

    def _handle_request(self, request: dict) -> dict:
        op = request.get("op")
        if op == "submit":
            return self._admit(request)
        if op == "stats":
            return self._stats()
        if op == "job":
            return self._job_view(request)
        if op == "latencies":
            return {
                "ok": True,
                "placed": len(self.latencies),
                "awaiting": len(self._wall_submitted),
                "latencies": list(self.latencies),
            }
        if op == "pause":
            assert self._gate is not None
            self._gate.clear()
            return {"ok": True, "paused": True}
        if op == "resume":
            assert self._gate is not None
            self._gate.set()
            return {"ok": True, "paused": False}
        if op == "drain":
            return self._drain()
        if op == "shutdown":
            self.request_shutdown()
            return {"ok": True, "stopping": True}
        if op == "ping":
            return {"ok": True, "pong": True}
        return protocol.error(f"unknown op {op!r}")

    def _stats(self) -> dict:
        snap = self.core.snapshot()
        assert self._queue is not None
        return {
            "ok": True,
            "now": snap.now,
            "submitted": snap.submitted,
            "pending": snap.pending,
            "running": snap.running,
            "finished": snap.finished,
            "failed": snap.failed,
            "events": snap.events,
            "next_event_time": snap.next_event_time,
            "mean_turnaround": snap.mean_turnaround,
            "watermark": self.watermark,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "queue_depth": self._queue.qsize(),
            "queue_limit": self.queue_limit,
            "drained": self._drained,
            "fault": self.fault,
        }

    def _job_view(self, request: dict) -> dict:
        try:
            job_id = int(request["job_id"])
        except (KeyError, TypeError, ValueError):
            return protocol.error("job op needs an integer job_id")
        job = self.core.jobs.get(job_id)
        if job is None:
            queued = job_id in self._known_ids
            if queued:
                return {"ok": True, "job_id": job_id, "state": "queued"}
            return protocol.error(f"unknown job {job_id}")
        view = {
            "ok": True,
            "job_id": job_id,
            "state": job.state.value,
            "program": job.program.name,
            "procs": job.procs,
            "submit_time": job.submit_time,
            "start_time": job.start_time,
            "finish_time": job.finish_time,
            "retries": job.retries,
        }
        if job.placement is not None:
            view["n_nodes"] = job.placement.n_nodes
            view["ways"] = job.placement.dedicated_ways
        if job.state in (JobState.FINISHED, JobState.FAILED):
            view["turnaround"] = job.turnaround_time
        return view

    def _drain(self) -> dict:
        """Ingest everything still queued, run the core to exhaustion,
        finalize, and report the batch-equivalent summary.  Idempotent:
        a second drain returns the cached summary."""
        if self._drained:
            assert self._final_summary is not None
            return self._final_summary
        if self.fault is not None:
            return protocol.error(f"scheduler fault: {self.fault}")
        assert self._queue is not None
        try:
            while True:
                try:
                    job, wall = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                self.core.submit(job)
                self._wall_submitted[job.job_id] = wall
            while self.core.step():
                pass
            self._harvest_placements()
            result = self.core.finalize()
        except ReproError as exc:
            self.fault = str(exc)
            return protocol.error(f"drain failed: {exc}")
        self._drained = True
        snap = self.core.snapshot()
        self._final_summary = {
            "ok": True,
            "makespan": result.makespan,
            "finished": snap.finished,
            "failed": snap.failed,
            "events": result.events,
            "mean_turnaround": snap.mean_turnaround,
            "placed": len(self.latencies),
        }
        return self._final_summary

    # --------------------------------------------------------- connections

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        """Serve one connection; the first line picks the encoding
        (HTTP verb -> HTTP, otherwise the JSON line protocol).  A line
        over :data:`LINE_LIMIT` gets a 413 refusal and ends the
        connection."""
        http = False
        try:
            try:
                first = await _read_line(reader)
                if not first:
                    return
                http = protocol.HTTP_VERB.match(first) is not None
                if http:
                    await self._serve_http(first, reader, writer)
                else:
                    await self._serve_lines(first, reader, writer)
            except _LineTooLong as exc:
                http = http or protocol.HTTP_VERB.match(exc.head) is not None
                await _refuse(writer, http, (413, "Payload Too Large"),
                              str(exc))
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels handlers still waiting on their client's
            # next request; that is a clean exit, not an error.
            pass
        finally:
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _serve_lines(self, first: bytes, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        line = first
        while line:
            stripped = line.strip()
            if stripped:
                try:
                    request = protocol.decode(stripped)
                except ValueError as exc:
                    reply = protocol.error(f"bad request: {exc}")
                else:
                    reply = self._handle_request(request)
                writer.write(protocol.encode(reply))
                await writer.drain()
            line = await _read_line(reader)

    async def _serve_http(self, first: bytes, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        request_line = first
        while request_line:
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                await _refuse(writer, True, (400, "Bad Request"),
                              "malformed request line")
                return
            method, path = parts[0], parts[1]
            length = 0
            keep_alive = True
            while True:
                header = await _read_line(reader)
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode("latin-1").partition(":")
                name = name.strip().lower()
                value = value.strip()
                if name == "content-length":
                    # 1*DIGIT only: int() would also take signs, spaces,
                    # underscores and non-ASCII digits.
                    length = int(value) \
                        if value.isascii() and value.isdigit() else -1
                elif name == "connection" and value.lower() == "close":
                    keep_alive = False
            if length < 0:
                await _refuse(writer, True, (400, "Bad Request"),
                              "Content-Length must be a non-negative "
                              "integer")
                return
            body = await reader.readexactly(length) if length else None
            try:
                request = protocol.route_request(method, path, body)
            except ValueError as exc:
                reply = protocol.error(f"bad request: {exc}")
                request = {}
            else:
                if request is None:
                    writer.write(protocol.http_response(
                        protocol.error(f"no route {method} {path}"),
                        status=(404, "Not Found"), keep_alive=keep_alive,
                    ))
                    await writer.drain()
                    if not keep_alive:
                        return
                    request_line = await _read_line(reader)
                    continue
                reply = self._handle_request(request)
            writer.write(protocol.http_response(
                reply, status=protocol.http_status_for(reply),
                keep_alive=keep_alive,
            ))
            await writer.drain()
            if not keep_alive:
                return
            request_line = await _read_line(reader)


class ServiceHandle:
    """A master running on a dedicated thread: the synchronous front
    end for tests, ``repro-sns serve``, and ``tools/loadgen.py``."""

    def __init__(self, master: SchedulerMaster, host: str, port: int,
                 thread) -> None:
        self.master = master
        self.host = host
        self.port = port
        self._thread = thread

    def stop(self, timeout: float = 10.0) -> None:
        """Request shutdown from outside the loop and join the thread."""
        loop = getattr(self.master, "_serve_loop", None)
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.master.request_shutdown)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop")


def serve_in_thread(master: SchedulerMaster, host: str = "127.0.0.1",
                    port: int = 0, *, timeout: float = 10.0) -> ServiceHandle:
    """Start ``master`` on a fresh daemon thread and block until its
    socket is listening; returns a :class:`ServiceHandle`."""
    import threading

    started = threading.Event()
    failure: List[BaseException] = []

    def runner() -> None:
        async def main() -> None:
            master._serve_loop = asyncio.get_running_loop()
            await master.serve(host, port, ready=lambda _addr: started.set())

        try:
            asyncio.run(main())
        except BaseException as exc:  # surfaced via handle below
            failure.append(exc)
            started.set()

    thread = threading.Thread(target=runner, name="repro-service",
                              daemon=True)
    thread.start()
    if not started.wait(timeout):
        raise RuntimeError("service did not start listening in time")
    if failure:
        raise RuntimeError(f"service failed to start: {failure[0]!r}")
    assert master.address is not None
    return ServiceHandle(master, master.address[0], master.address[1], thread)

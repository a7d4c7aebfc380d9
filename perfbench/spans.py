"""Outside-in layer spans: wrappers around the public calls the runtime
makes into each layer, installed from the benchmark and removed after.

A span records its name, start and end (``perf_counter_ns``), parent
span and trace id.  A top-level span (no wrapped caller) opens a new
trace id, so every span of one ``step()`` or one service request shares
its trace id.  A layer's self time is its spans' duration minus the
time their direct child spans cover; it is accumulated as spans close,
and the spans themselves stay in memory until :meth:`Recorder.dump`.

``PerfContext`` and ``Tracer`` use ``__slots__``, so every method is
wrapped on its class (or a function on the module that calls it) and
put back by :meth:`Recorder.restore`.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.obs.trace import Tracer
from repro.perfmodel.context import PerfContext
from repro.scheduling import cs as cs_module
from repro.scheduling import sns as sns_module
from repro.scheduling.base import BaseScheduler
from repro.service import protocol
from repro.sim import runtime as runtime_module
from repro.sim.cluster import ClusterState
from repro.sim.engine import EventQueue
from repro.sim.runtime import SchedulerCore

_TRACER_RECORDS = (
    "meta", "submit", "start", "finish", "evict", "job_failed",
    "node_fail", "node_recover", "profile_store", "links", "sched",
    "batch", "speed",
)

#: layer name -> the (owner, attribute) pairs wrapped under that name.
#: An owner is a class (methods) or a module (functions bound by name
#: in the module that calls them).
BOUNDARIES: Dict[str, List[Tuple[object, str]]] = {
    "sim.runtime.step": [(SchedulerCore, "step")],
    "sim.engine.pop": [(EventQueue, m) for m in
                       ("pop", "pop_finish_at", "pop_submit_at")],
    "sim.engine.push": [(EventQueue, m) for m in
                        ("push_submit", "push_finish", "retire",
                         "cancel_finish")],
    "scheduling.schedule_point": [(BaseScheduler, "schedule_point")],
    "scheduling.find_nodes": [(sns_module, "find_nodes"),
                              (cs_module, "find_nodes")],
    "scheduling.estimate_demands": [(sns_module, "estimate_demands_batch")],
    "sim.cluster.scan_hosts": [(ClusterState, "scan_hosts")],
    "sim.cluster.pick_idlest": [(ClusterState, "pick_idlest")],
    "sim.cluster.place_slices": [(ClusterState, "place_slices")],
    "sim.cluster.remove_slices": [(ClusterState, "remove_slices")],
    "sim.cluster.first_idle": [(ClusterState, "first_idle")],
    "sim.cluster.arbitration_batch": [(ClusterState, "arbitration_batch")],
    "sim.cluster.solo_conditions": [(ClusterState, "solo_conditions")],
    "sim.cluster.residents": [(ClusterState, "shared_resident_jobs"),
                              (ClusterState, "resident_jobs_on")],
    "perfmodel.kernels": [(PerfContext, m) for m in
                          ("process_rate", "node_arbitration",
                           "network_fraction", "bandwidth_supply")],
    "perfmodel.job_time": [(runtime_module, "job_time"),
                           (SchedulerCore, "_job_time_from_keys")],
    "service.decode": [(protocol, "decode")],
    "service.encode": [(protocol, "encode")],
    "service.submit": [(SchedulerCore, "submit")],
    "obs.tracer": [(Tracer, m) for m in _TRACER_RECORDS],
}

LAYERS: Tuple[str, ...] = tuple(BOUNDARIES)


def _len_first(args, _result) -> int:
    """Length of the first positional argument after ``self``."""
    return len(args[1])


#: layer -> what one call adds to the layer's tally, a count taken at
#: the boundary itself: pending jobs offered, searches that found
#: nodes, node ids passed in.
TALLIES: Dict[str, Callable] = {
    "scheduling.schedule_point": lambda a, r: len(a[2]),
    "scheduling.find_nodes": lambda a, r: r is not None,
    "sim.cluster.place_slices": _len_first,
    "sim.cluster.remove_slices": _len_first,
    "sim.cluster.arbitration_batch": _len_first,
}


class Recorder:
    """Spans and per-layer totals of one traced region."""

    def __init__(self) -> None:
        self._index = {name: i for i, name in enumerate(LAYERS)}
        self.name_of = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trace = array("q")
        # One frame per open span: [span index, trace id, child ns].
        self._stack: List[list] = []
        self._traces = 0
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.top_ns = 0
        self.tallies: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.pending_max = 0
        self._saved: List[Tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as a span of layer ``name``."""
        code = self._index[name]
        count = TALLIES.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        tallies = self.tallies
        spans = (self.name_of, self.start, self.end, self.parent,
                 self.trace)
        name_of, starts, ends, parents, traces = spans

        def wrapper(*args, **kwargs):
            if stack:
                outer = stack[-1]
                parent, trace = outer[0], outer[1]
            else:
                outer = None
                parent, trace = -1, self._traces
                self._traces += 1
            index = len(starts)
            name_of.append(code)
            starts.append(0)
            ends.append(0)
            parents.append(parent)
            traces.append(trace)
            frame = [index, trace, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
                took = t1 - t0
                calls[name] += 1
                self_ns[name] += took - frame[2]
                if outer is not None:
                    outer[2] += took
                else:
                    self.top_ns += took
            if count is not None:
                added = count(args, result)
                tallies[name] += added
                if name == "scheduling.schedule_point" \
                        and added > self.pending_max:
                    self.pending_max = added
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES`."""
        if self._saved:
            raise RuntimeError("wrappers already installed")
        for name, targets in BOUNDARIES.items():
            for owner, attr in targets:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- output -------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans to ``path`` as a NumPy ``.npz`` of columns:
        ``name`` (an index into ``names``), ``start_ns``, ``end_ns``,
        ``parent`` (span index, -1 at top level) and ``trace``."""
        np.savez(
            path, names=np.array(LAYERS),
            name=np.frombuffer(self.name_of, dtype=np.int16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            trace=np.frombuffer(self.trace, dtype=np.int64),
        )


def installed_wrappers() -> List[str]:
    """Boundaries that currently carry a wrapper (should be empty
    outside a traced region)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for targets in BOUNDARIES.values()
        for owner, attr in targets
        if hasattr(owner.__dict__[attr], "__wrapped__")
    ]


#: Per-layer metrics that are not a layer's calls or self time, with
#: their units.  Those of a layer a workload never reaches read 0.
EXTRA_METRICS: Dict[str, str] = {
    "sim.runtime.event_batches": "count",
    "sim.runtime.events_coalesced": "count",
    "sim.runtime.refresh_cycles": "count",
    "sim.runtime.nodes_refreshed": "count",
    "hardware.fabric.link_refreshes": "count",
    "hardware.fabric.route_evals": "count",
    "scheduling.try_place_calls": "count",
    "scheduling.jobs_skipped": "count",
    "scheduling.skip_ratio": "ratio",
    "scheduling.pending_mean": "count",
    "scheduling.pending_max": "count",
    "scheduling.cost_growth": "ratio",
    "scheduling.find_nodes_hit_ratio": "ratio",
    "scheduling.demand_hit_ratio": "ratio",
    "sim.cluster.nodes_scanned": "count",
    "sim.cluster.scan_ns_per_node": "ns",
    "sim.cluster.slices_written": "count",
    "sim.cluster.arb_nodes_requested": "count",
    "sim.cluster.arb_nodes_solved": "count",
    "sim.cluster.arb_solve_ratio": "ratio",
    "perfmodel.cache_hit_ratio": "ratio",
    "service.accepted": "count",
    "service.rejected_retryable": "count",
    "service.place_p50_ms": "ms",
    "service.place_p99_ms": "ms",
    "loadgen.op_p50_ms": "ms",
    "loadgen.op_p99_ms": "ms",
    "loadgen.lateness_max_ms": "ms",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}

#: Every per-layer metric with its unit, in report order.
PER_LAYER_METRICS: Dict[str, str] = {
    f"{name}.{part}": unit
    for name in LAYERS for part, unit in (("calls", "count"),
                                          ("self_s", "s"))
}
PER_LAYER_METRICS.update(EXTRA_METRICS)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def core_metrics(rec: Recorder, counters: Dict[str, int],
                 cache_stats: Dict[str, Dict[str, int]]) -> Dict[str, float]:
    """Per-layer metrics of one traced region: every layer's calls and
    self time, plus the counts the core and its perf context keep."""
    m: Dict[str, float] = dict.fromkeys(PER_LAYER_METRICS, 0)
    for name in LAYERS:
        m[f"{name}.calls"] = rec.calls[name]
        m[f"{name}.self_s"] = rec.self_ns[name] / 1e9
    get = counters.get
    for key in ("event_batches", "events_coalesced", "refresh_cycles",
                "nodes_refreshed"):
        m[f"sim.runtime.{key}"] = get(key, 0)
    m["hardware.fabric.link_refreshes"] = get("fabric_link_refreshes", 0)
    m["hardware.fabric.route_evals"] = get("fabric_route_evals", 0)
    tried, skipped = get("try_place_calls", 0), get("jobs_skipped", 0)
    m["scheduling.try_place_calls"] = tried
    m["scheduling.jobs_skipped"] = skipped
    m["scheduling.skip_ratio"] = ratio(skipped, tried + skipped)
    m["scheduling.pending_mean"] = ratio(
        rec.tallies["scheduling.schedule_point"],
        rec.calls["scheduling.schedule_point"])
    m["scheduling.pending_max"] = rec.pending_max
    m["scheduling.find_nodes_hit_ratio"] = ratio(
        rec.tallies["scheduling.find_nodes"],
        rec.calls["scheduling.find_nodes"])
    hits = get("demand_cache_hits", 0)
    m["scheduling.demand_hit_ratio"] = ratio(
        hits, hits + rec.calls["scheduling.estimate_demands"])
    scanned = get("nodes_scanned", 0)
    m["sim.cluster.nodes_scanned"] = scanned
    m["sim.cluster.scan_ns_per_node"] = ratio(
        rec.self_ns["sim.cluster.scan_hosts"], scanned)
    m["sim.cluster.slices_written"] = (
        rec.tallies["sim.cluster.place_slices"]
        + rec.tallies["sim.cluster.remove_slices"])
    requested = rec.tallies["sim.cluster.arbitration_batch"]
    solved = get("arb_nodes_solved", 0)
    m["sim.cluster.arb_nodes_requested"] = requested
    m["sim.cluster.arb_nodes_solved"] = solved
    m["sim.cluster.arb_solve_ratio"] = ratio(solved, requested)
    cache_hits = sum(s["hits"] for s in cache_stats.values())
    lookups = sum(s["hits"] + s["misses"] for s in cache_stats.values())
    m["perfmodel.cache_hit_ratio"] = ratio(cache_hits, lookups)
    return m

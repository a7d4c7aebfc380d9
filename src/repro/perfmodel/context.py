"""Per-simulation performance-model context.

:class:`PerfContext` owns every piece of mutable kernel state the fast
paths of the simulator rely on: the exact process-rate memo, the run's
counter dict (:data:`COUNTER_NAMES`), the ``max_entries`` eviction
policy, and the ``enabled`` flag that routes every call to the
unmemoized reference kernels when cleared.

Each :class:`repro.sim.runtime.Simulation` constructs its own context
and threads it through every layer that consults kernel state
(``ClusterState`` at construction, the schedulers via ``cluster.ctx``,
``job_time`` / ``arbitrate_nodes`` as an explicit argument).  Nothing is
process-global: two simulations in one process — including two whose
cores are stepped alternately — can never observe each other's cache
entries, counters, or cache-mode flag, so an interleaved run is
bit-identical to a serial one by construction
(``tests/test_perf_context.py`` steps two cores in rotation and checks
exactly that).  Every layer writes its counters into the one
``counters`` dict, so a policy object reused for a second run reports
that run's counts only.

The rate memo is exact (see DESIGN.md §7): a hit returns the
bit-identical float the reference computation would produce, and
programs are keyed by identity with strong references held and
verified with ``is`` on lookup.  ``node_arbitration``,
``network_fraction`` and ``bandwidth_supply`` are uncached kernel
calls; they stay methods because they are the perf-model layer
boundary that ``perfbench/spans.py`` wraps by name.

Cache mode is resolved once per simulation by
:func:`resolve_cache_mode`: ``SimConfig.perf_caches`` is the only
control (``None`` means enabled).  The old
``REPRO_DISABLE_PERF_CACHES`` environment shim was removed after its
deprecation release; the variable is now ignored.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.hardware.node_spec import NodeSpec
from repro.perfmodel.contention import arbitrate_node, node_network_load
from repro.perfmodel.execution import NodeConditions
from repro.perfmodel.execution import process_rate as _reference_rate

#: Default safety valve: a cache that somehow exceeds this many entries
#: is cleared wholesale (distinct keys are bounded in practice, so this
#: should never trigger outside adversarial workloads).
MAX_ENTRIES = 1 << 20

#: Every counter a run reports, each starting at 0 (DESIGN.md §10).
#: ``SimulationResult.counters`` is a copy of the context's dict plus
#: ``events``.
COUNTER_NAMES: Tuple[str, ...] = (
    # runtime event loop and fault handling (repro.sim.runtime)
    "event_batches", "events_coalesced", "refresh_cycles",
    "nodes_refreshed", "node_failures", "node_recoveries",
    "job_evictions", "job_retries", "jobs_failed", "profile_outages",
    # cluster arbitration and placement search (repro.sim.cluster,
    # repro.scheduling.placement)
    "view_cache_hits", "arb_nodes_solved", "nodes_scanned",
    "find_fail_hits", "scan_cache_hits",
    # scheduling queue (repro.scheduling.base / sns)
    "try_place_calls", "jobs_skipped", "demand_cache_hits",
    # perf-model kernels: rate memo, batched arbitration, vectorized
    # curves and finish updates, fabric link accounting
    "memo_rate_hits", "memo_rate_misses",
    "batch_calls", "batch_nodes", "batch_slices",
    "vec_curve_evals", "vec_finish_updates",
    "fabric_link_refreshes", "fabric_route_evals",
)


def resolve_cache_mode(perf_caches: Optional[bool] = None) -> bool:
    """Resolve the cache mode for one simulation.

    ``SimConfig.perf_caches`` is the sole control: ``None`` (the
    default) enables the memoized kernels, ``False`` routes every call
    to the unmemoized reference kernels.
    """
    if perf_caches is not None:
        return bool(perf_caches)
    return True


class PerfContext:
    """All mutable perf-model kernel state of one simulation.

    :meth:`process_rate` is an exact cache: with ``enabled`` cleared it
    routes straight to the reference kernel, and a hit always returns
    the bit-identical value the reference would produce.
    """

    __slots__ = ("enabled", "max_entries", "_rate_cache", "counters")

    def __init__(self, enabled: bool = True,
                 max_entries: int = MAX_ENTRIES) -> None:
        self.enabled = bool(enabled)
        self.max_entries = max_entries
        # (id(program), procs, capacity_mb, granted, n_nodes) -> (program, rate)
        self._rate_cache: Dict[tuple, tuple] = {}
        #: The run's counters, one dict for every layer.
        self.counters: Dict[str, int] = dict.fromkeys(COUNTER_NAMES, 0)

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Run a block on the unmemoized reference path."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/size of the rate memo (for benchmarks and tests)."""
        return {"rate": {
            "hits": self.counters["memo_rate_hits"],
            "misses": self.counters["memo_rate_misses"],
            "size": len(self._rate_cache),
        }}

    # -- kernel wrappers ----------------------------------------------------

    def process_rate(self, program, procs: int, capacity_mb: float,
                     granted: float, n_nodes: int) -> float:
        """Memoized per-process roofline rate (``net_load`` does not
        affect the rate, so it is excluded from the key)."""
        if not self.enabled:
            return _reference_rate(
                program, NodeConditions(procs, capacity_mb, granted), n_nodes
            )
        key = (id(program), procs, capacity_mb, granted, n_nodes)
        cache = self._rate_cache
        hit = cache.get(key)
        if hit is not None and hit[0] is program:
            self.counters["memo_rate_hits"] += 1
            return hit[1]
        value = _reference_rate(
            program, NodeConditions(procs, capacity_mb, granted), n_nodes
        )
        if len(cache) >= self.max_entries:
            cache.clear()
        cache[key] = (program, value)
        self.counters["memo_rate_misses"] += 1
        return value

    def node_arbitration(
        self, spec: NodeSpec, slices: Sequence
    ) -> Tuple[Dict[int, float], float]:
        """``(arbitrate_node, node_network_load)`` for one node's slices."""
        return arbitrate_node(spec, slices), node_network_load(spec, slices)

    def network_fraction(self, program, n_nodes: int) -> float:
        """``program.comm.network_fraction`` (the value behind
        :func:`repro.perfmodel.contention.node_network_load`)."""
        return program.comm.network_fraction(n_nodes)

    def bandwidth_supply(self, spec: NodeSpec, total_procs: int) -> float:
        """The node's saturating DRAM supply for ``total_procs`` active
        cores."""
        return spec.bandwidth.aggregate(total_procs)

"""The pending-job queue, kept in priority order.

The runtime owns one :class:`PendingQueue` per simulation and hands it
to the policy at every scheduling point.  Jobs are held by id in a list
sorted by the policy's priority key (``SchedulerPolicy.priority_key``),
so the policy reads the head of the queue directly instead of ranking
the whole backlog at every point (DESIGN.md §7, pending-queue index).

Costs: a submit or requeue is one key evaluation plus a bisect insert;
removing a placed job is a dict lookup plus a bisect; reading the head
touches only the entries read.  Aging goes through :meth:`pass_over`,
which re-keys the aged jobs and re-sorts only the prefix that ends at
the last of them.  That is enough because aging only *lowers* a key:
an aged job can only move forward, so every entry behind the prefix
keeps its place.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import islice
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.job import Job

_job_of = itemgetter(1)


class PendingQueue:
    """Pending jobs by id, iterated in ascending priority-key order.

    ``key`` maps a job to its rank, smaller first; ranks must be unique
    per job (the policy's key ends in the job id)."""

    __slots__ = ("_key", "_entries", "_by_id")

    def __init__(self, key: Callable[[Job], tuple],
                 jobs: Iterable[Job] = ()) -> None:
        self._key = key
        # Sorted ``(key, job)`` entries.  Keys are unique, so tuple
        # comparison never falls through to the Job objects.
        self._entries: List[Tuple[tuple, Job]] = []
        self._by_id: Dict[int, Tuple[tuple, Job]] = {}
        for job in jobs:
            self.push(job)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Job]:
        return map(_job_of, self._entries)

    def head(self, limit: int) -> Iterator[Job]:
        """The first ``limit`` jobs in priority order, read lazily.  The
        queue must not change while the iterator is live."""
        return map(_job_of, islice(self._entries, limit))

    def get(self, job_id: int) -> Optional[Job]:
        """The pending job with this id, or ``None``."""
        entry = self._by_id.get(job_id)
        return None if entry is None else entry[1]

    def push(self, job: Job) -> None:
        """Queue a submitted (or requeued) job at its current rank."""
        if job.job_id in self._by_id:
            raise SimulationError(f"job {job.job_id} is already pending")
        entry = (self._key(job), job)
        self._by_id[job.job_id] = entry
        insort(self._entries, entry)

    def remove(self, job_id: int) -> Job:
        """Drop a pending job by id (it was placed); ``KeyError`` when
        no such job is pending."""
        entry = self._by_id.pop(job_id)
        del self._entries[bisect_left(self._entries, entry)]
        return entry[1]

    def pass_over(self, jobs: Iterable[Job]) -> None:
        """Age pending jobs a scheduling point skipped: each one's
        ``times_passed_over`` goes up by one and it is re-ranked.

        Only the prefix that ends at the last aged job is re-sorted:
        a lowered key moves its job forward only, so every entry behind
        that prefix keeps its place.  Timsort restores a nearly sorted
        prefix in one pass."""
        entries = self._entries
        by_id = self._by_id
        aged = [(bisect_left(entries, by_id[job.job_id]), job)
                for job in jobs]
        if not aged:
            return
        key = self._key
        end = 0
        for pos, job in aged:
            job.times_passed_over += 1
            entry = (key(job), job)
            by_id[job.job_id] = entry
            entries[pos] = entry
            if pos >= end:
                end = pos + 1
        entries[:end] = sorted(entries[:end])

"""The pending-job queue: the distributor's dispatch index."""

from __future__ import annotations

import bisect
import heapq
import math
import threading
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional

from repro._errors import SchedulingError
from repro.cluster.job import Job, JobState

__all__ = ["JobQueue", "NeedBucket"]


def _seq(job: Job) -> int:
    return job.seq


class NeedBucket:
    """The ready jobs of one core need (``request.total_cores``).

    ``keys``/``jobs`` are parallel lists sorted by the queue's key;
    ``by_est`` holds ``(est_runtime_s, key, job)`` of the jobs that carry
    an estimate, sorted by estimate, so :meth:`estimated_within` finds
    the jobs short enough for a window without scanning the rest.
    """

    __slots__ = ("need", "keys", "jobs", "by_est")

    def __init__(self, need: int) -> None:
        self.need = need
        self.keys: list = []
        self.jobs: list[Job] = []
        self.by_est: list[tuple[float, Any, Job]] = []

    def estimated_within(self, accept: Callable[[float], bool]) -> tuple[list, list[Job]]:
        """``(keys, jobs)`` of the jobs whose estimate passes ``accept``, in
        key order.  ``accept`` must fail for every estimate above one it
        fails, so the accepted jobs are a prefix of ``by_est``."""
        lo, hi = 0, len(self.by_est)
        while lo < hi:
            mid = (lo + hi) // 2
            if accept(self.by_est[mid][0]):
                lo = mid + 1
            else:
                hi = mid
        accepted = sorted(self.by_est[:lo], key=itemgetter(1))
        return [entry[1] for entry in accepted], [entry[2] for entry in accepted]


class JobQueue:
    """Queued jobs, indexed for scheduling rounds that cost O(what they start).

    Ready jobs sit in one :class:`NeedBucket` per core need, each sorted by
    the policy's *time-invariant* key (``Scheduler.queue_key``, installed
    with :meth:`rekey`; ``job.seq``, i.e. submission order, until then).
    :meth:`walk` merges the buckets lazily in key order and drops a whole
    bucket as soon as the policy says it cannot fit, so a round skips
    every job too wide for the free cores without visiting it.  A job
    pushed back out of order — re-queued after a placement raced with a
    node failure, released from a dependency hold, retried — lands at its
    key's position, so FIFO semantics survive requeues.

    Jobs serving a retry backoff (``job.not_before`` after the ``now``
    they were pushed at) wait in a heap instead and move into their
    bucket when :meth:`release` passes their ``not_before``.  They still
    count in ``len()``, so queue-depth gauges see them.
    """

    def __init__(self) -> None:
        self._key: Callable[[Job], Any] = _seq
        self._buckets: dict[int, NeedBucket] = {}
        #: ``(not_before, seq, job)`` of jobs still backing off
        self._backoff: list[tuple[float, int, Job]] = []
        #: job id -> its key, for the jobs in buckets
        self._keys: dict[str, Any] = {}
        #: job id -> its heap entry, for the jobs backing off
        self._backing: dict[str, tuple[float, int, Job]] = {}
        self._lock = threading.Lock()
        #: jobs :meth:`walk` has yielded, cumulative
        self.visited = 0

    def push(self, job: Job, now: float = math.inf) -> None:
        """Add a job (must be QUEUED).

        A job whose ``not_before`` lies after ``now`` waits in the backoff
        heap; the default ``now`` (no clock) treats every job as ready.
        """
        if job.state is not JobState.QUEUED:
            raise SchedulingError(
                f"only QUEUED jobs enter the queue; {job.id} is {job.state.value}"
            )
        with self._lock:
            if job.id in self._keys or job.id in self._backing:
                return  # already queued
            if job.not_before > now:
                entry = (job.not_before, job.seq, job)
                heapq.heappush(self._backoff, entry)
                self._backing[job.id] = entry
            else:
                self._insert(job)

    def _insert(self, job: Job) -> None:
        key = self._key(job)
        request = job.request
        bucket = self._buckets.get(request.total_cores)
        if bucket is None:
            bucket = self._buckets[request.total_cores] = NeedBucket(request.total_cores)
        if not bucket.keys or bucket.keys[-1] < key:
            bucket.keys.append(key)
            bucket.jobs.append(job)
        else:
            i = bisect.bisect_left(bucket.keys, key)
            bucket.keys.insert(i, key)
            bucket.jobs.insert(i, job)
        if request.est_runtime_s is not None:
            bisect.insort(bucket.by_est, (request.est_runtime_s, key, job))
        self._keys[job.id] = key

    def remove(self, job: Job) -> bool:
        """Remove a job wherever it sits (e.g. on cancel). Returns success."""
        with self._lock:
            entry = self._backing.pop(job.id, None)
            if entry is not None:
                self._backoff.remove(entry)
                heapq.heapify(self._backoff)
                return True
            key = self._keys.pop(job.id, None)
            if key is None:
                return False
            bucket = self._buckets[job.request.total_cores]
            i = bisect.bisect_left(bucket.keys, key)
            del bucket.keys[i]
            del bucket.jobs[i]
            est = job.request.est_runtime_s
            if est is not None:
                del bucket.by_est[bisect.bisect_left(bucket.by_est, (est, key))]
            if not bucket.keys:
                del self._buckets[bucket.need]
            return True

    def release(self, now: float) -> Optional[float]:
        """Move jobs whose backoff ended by ``now`` into their buckets.

        Returns the earliest ``not_before`` still pending (``None`` when
        nothing backs off), so the caller can arm a wake-up for it.
        """
        with self._lock:
            heap = self._backoff
            while heap and heap[0][0] <= now:
                job = heapq.heappop(heap)[2]
                del self._backing[job.id]
                self._insert(job)
            return heap[0][0] if heap else None

    def rekey(self, key: Callable[[Job], Any]) -> None:
        """Order the queue by a new policy key from now on, re-sorting
        every bucket."""
        with self._lock:
            self._key = key
            jobs = [job for bucket in self._buckets.values() for job in bucket.jobs]
            self._buckets = {}
            for job in jobs:
                self._insert(job)

    def walk(
        self,
        fits: Optional[Callable[[NeedBucket], bool]] = None,
        after: Any = None,
        narrow: Optional[Callable[[NeedBucket], Optional[tuple[list, list[Job]]]]] = None,
    ) -> Iterator[Job]:
        """Ready jobs in key order, merged lazily across the buckets.

        ``fits(bucket)`` is asked again before each job is yielded (so it
        sees the caller's picks so far); once it says no, the bucket is
        dropped for the rest of the walk — callers pass conditions that
        cannot turn true again within a round, such as "need <= free
        cores".  ``narrow(bucket)`` may replace a bucket by a key-sorted
        ``(keys, jobs)`` subset of it for this walk (``None`` keeps it
        whole).  ``after`` starts past that key.  The queue must not
        change while a walk is in progress.
        """
        # Keys are unique across buckets, so heap entries compare on them alone.
        heap = []
        for bucket in self._buckets.values():
            if fits is not None and not fits(bucket):
                continue
            keys, jobs = bucket.keys, bucket.jobs
            if narrow is not None:
                keys, jobs = narrow(bucket) or (keys, jobs)
            pos = 0 if after is None else bisect.bisect_right(keys, after)
            if pos < len(keys):
                heap.append((keys[pos], pos, keys, jobs, bucket))
        heapq.heapify(heap)
        while heap:
            _, pos, keys, jobs, bucket = heap[0]
            if fits is not None and not fits(bucket):
                heapq.heappop(heap)
                continue
            self.visited += 1
            yield jobs[pos]
            pos += 1
            if pos < len(keys):
                heapq.heapreplace(heap, (keys[pos], pos, keys, jobs, bucket))
            else:
                heapq.heappop(heap)

    def snapshot(self) -> list[Job]:
        """Copy of every queued job, backing-off ones included, in key order."""
        with self._lock:
            jobs = [job for bucket in self._buckets.values() for job in bucket.jobs]
            jobs += [entry[2] for entry in self._backoff]
        return sorted(jobs, key=self._key)

    def __len__(self) -> int:
        return len(self._keys) + len(self._backing)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.snapshot())

    def head(self) -> Optional[Job]:
        """First ready job in key order, or None."""
        with self._lock:
            first = min(self._buckets.values(), key=lambda b: b.keys[0], default=None)
            return first.jobs[0] if first is not None else None

    def purge_terminal(self) -> int:
        """Drop cancelled/finished jobs that are still lingering; count them."""
        dead = [job for job in self.snapshot() if job.terminal]
        for job in dead:
            self.remove(job)
        return len(dead)

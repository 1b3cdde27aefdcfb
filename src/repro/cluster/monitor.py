"""Utilisation sampling, per-job accounting, and node-health tracking.

:class:`ClusterMonitor` is the paper's monitor page (load samples +
accounting log).  :class:`HealthMonitor` is the fault-tolerance layer's
memory: per-node heartbeat/failure history, SUSPECT decisions for
flapping nodes, probation-based rejoin, and the cluster-wide degraded
flag the portal surfaces as a banner.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cluster.grid import Grid
from repro.cluster.job import Job
from repro.cluster.node import NodeState

__all__ = [
    "AccountingRecord",
    "UtilisationSample",
    "ClusterMonitor",
    "HealthPolicy",
    "NodeHealth",
    "HealthMonitor",
]


@dataclass(frozen=True)
class AccountingRecord:
    """One finished job's accounting line."""

    job_id: str
    name: str
    owner: str
    state: str
    total_cores: int
    wait_s: Optional[float]
    runtime_s: Optional[float]

    @property
    def core_seconds(self) -> Optional[float]:
        if self.runtime_s is None:
            return None
        return self.runtime_s * self.total_cores


@dataclass(frozen=True)
class UtilisationSample:
    """Grid load at one instant."""

    t: float
    load: float
    cores_free: int
    queued: int


class ClusterMonitor:
    """Collects utilisation samples and accounting records.

    The portal's monitor page and the scheduling benchmarks both read
    from here; everything is thread-safe.  Utilisation samples live in a
    bounded ring buffer (``max_samples``, default 4096): one sample is
    taken per dispatch round, so an unbounded buffer would grow forever
    on a long-running portal — the ring keeps the newest window and
    makes each insert O(1).
    """

    def __init__(self, max_samples: int = 4096) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.max_samples = max_samples
        self._samples: deque[UtilisationSample] = deque(maxlen=max_samples)
        self._records: list[AccountingRecord] = []
        self._lock = threading.Lock()
        self._tel: Optional[dict] = None

    def bind(self, registry) -> None:
        """Mirror this monitor's outputs into a metrics registry.

        Idempotent on purpose: a monitor shared between distributors
        keeps its first binding (first registry wins) so its gauges are
        never split across snapshots.
        """
        if self._tel is not None or not registry.enabled:
            return
        # The utilisation gauges read the *latest sample* at scrape time,
        # so sampling itself stays exactly as cheap as before binding.
        samples = self._samples
        registry.gauge("repro_cluster_load", "fraction of cores allocated").set_fn(
            lambda: samples[-1].load if samples else 0.0
        )
        registry.gauge("repro_cluster_cores_free", "unallocated cores").set_fn(
            lambda: samples[-1].cores_free if samples else 0
        )
        registry.gauge(
            "repro_cluster_queued_jobs", "jobs queued or dependency-held"
        ).set_fn(lambda: samples[-1].queued if samples else 0)
        self._tel = {
            "wait": registry.histogram(
                "repro_cluster_job_wait_seconds", "submit-to-start wait of finished jobs"
            ),
            "runtime": registry.histogram(
                "repro_cluster_job_runtime_seconds", "run time of finished jobs"
            ),
            "finished": registry.counter(
                "repro_cluster_jobs_finished_total",
                "finished jobs by terminal state",
                labels=("state",),
            ),
            "core_seconds": registry.counter(
                "repro_cluster_core_seconds_total", "core-seconds consumed by finished jobs"
            ),
            # per-state children resolved once, then hit via dict.get
            "finished_children": {},
        }

    def sample(self, grid: Grid, t: float, queued: int = 0) -> None:
        """Record the grid's load at time ``t`` (evicts the oldest when full)."""
        s = UtilisationSample(t=t, load=grid.load, cores_free=grid.cores_free, queued=queued)
        with self._lock:
            self._samples.append(s)

    def record_job(self, job: Job) -> None:
        """Append the accounting line for a finished job."""
        rec = AccountingRecord(
            job_id=job.id,
            name=job.request.name,
            owner=job.request.owner,
            state=job.state.value,
            total_cores=job.request.total_cores,
            wait_s=job.wait_s,
            runtime_s=job.runtime_s,
        )
        with self._lock:
            self._records.append(rec)
        tel = self._tel
        if tel is not None:
            children = tel["finished_children"]
            child = children.get(rec.state)
            if child is None:
                child = children[rec.state] = tel["finished"].labels(rec.state)
            child.inc()
            if rec.wait_s is not None:
                tel["wait"].observe(rec.wait_s)
            if rec.runtime_s is not None:
                tel["runtime"].observe(rec.runtime_s)
            if rec.core_seconds is not None:
                tel["core_seconds"].inc(rec.core_seconds)

    # -- reads ------------------------------------------------------------
    @property
    def records(self) -> list[AccountingRecord]:
        with self._lock:
            return list(self._records)

    @property
    def samples(self) -> list[UtilisationSample]:
        with self._lock:
            return list(self._samples)

    def summary(self) -> dict:
        """Aggregate statistics over all accounting records.

        The latency aggregates are ``None`` when no record carries the
        underlying measurement — a cluster that has finished nothing has
        *no data*, which is not the same as a zero-second wait.
        ``core_seconds`` stays a plain sum (an empty sum really is 0).
        """
        recs = self.records
        waits = np.array([r.wait_s for r in recs if r.wait_s is not None], dtype=float)
        runs = np.array([r.runtime_s for r in recs if r.runtime_s is not None], dtype=float)
        by_state: dict[str, int] = {}
        for r in recs:
            by_state[r.state] = by_state.get(r.state, 0) + 1
        return {
            "jobs_finished": len(recs),
            "by_state": by_state,
            "mean_wait_s": float(waits.mean()) if waits.size else None,
            "p95_wait_s": float(np.percentile(waits, 95)) if waits.size else None,
            "mean_runtime_s": float(runs.mean()) if runs.size else None,
            "core_seconds": float(
                sum(r.core_seconds for r in recs if r.core_seconds is not None)
            ),
        }

    def mean_load(self) -> Optional[float]:
        """Time-unweighted mean of sampled loads; ``None`` before any sample.

        Returning 0.0 for an empty window would conflate "idle grid"
        with "never sampled".
        """
        samples = self.samples
        if not samples:
            return None
        return float(np.mean([s.load for s in samples]))


# -- node health -----------------------------------------------------------
@dataclass(frozen=True)
class HealthPolicy:
    """Knobs for the health monitor's SUSPECT/degraded decisions."""

    suspect_after: int = 3
    """Attempt failures within ``window_s`` that flag a node SUSPECT."""
    window_s: float = 60.0
    """Sliding window over which failures count as flapping."""
    probation_s: float = 120.0
    """Quiet time after which a SUSPECT node is eligible to rejoin."""
    degraded_below: float = 0.5
    """Cluster is *degraded* when ``cores_up / cores_total`` drops below
    this fraction — the portal shows a banner and ``stats()`` flags it."""

    def __post_init__(self) -> None:
        if self.suspect_after < 1:
            raise ValueError(f"suspect_after must be >= 1, got {self.suspect_after}")
        if self.window_s <= 0 or self.probation_s < 0:
            raise ValueError("window_s must be > 0 and probation_s >= 0")
        if not 0 <= self.degraded_below <= 1:
            raise ValueError(f"degraded_below must be in [0, 1], got {self.degraded_below}")


@dataclass
class NodeHealth:
    """Rolling health record for one node."""

    failures: deque = field(default_factory=deque)  # recent failure times
    failures_total: int = 0
    last_failure: Optional[float] = None
    last_heartbeat: Optional[float] = None
    suspected_at: Optional[float] = None
    down_at: Optional[float] = None


class HealthMonitor:
    """Per-node failure/heartbeat history feeding placement decisions.

    The distributor reports attempt completions here: successes count as
    heartbeats, failures accumulate in a sliding window.  When a node
    collects ``suspect_after`` failures within ``window_s`` the monitor
    asks for it to be drained (SUSPECT); after ``probation_s`` without
    further failures :meth:`due_probation` offers it back.  Because a
    SUSPECT/DOWN node exposes zero free capacity through the incremental
    node → segment → grid index, the scheduler avoids unhealthy nodes
    with no policy-side changes at all.

    Thread-safe; the distributor calls in under its own lock but the
    portal may snapshot concurrently.
    """

    def __init__(self, grid: Grid, policy: HealthPolicy | None = None) -> None:
        self.grid = grid
        self.policy = policy or HealthPolicy()
        # Pre-populate one entry per node: the dict never changes shape
        # afterwards, so hot-path reads (heartbeats) need no lock.
        self._nodes: dict[str, NodeHealth] = {
            node.name: NodeHealth() for node in grid.compute_nodes()
        }
        self._suspects = 0  # nodes with suspected_at set; due_probation fast path
        self._lock = threading.Lock()
        self._c_failures = None
        self._c_heartbeats = None

    def bind(self, registry) -> None:
        """Mirror health state into a metrics registry (first registry wins).

        The gauges are callback-derived: they read the grid/monitor at
        scrape time, so the heartbeat hot path stays lock-free and pays
        only one counter increment.
        """
        if self._c_failures is not None or not registry.enabled:
            return
        self._c_failures = registry.counter(
            "repro_health_failures_total", "attempt failures charged to nodes"
        )
        self._c_heartbeats = registry.counter(
            "repro_health_heartbeats_total", "successful-attempt heartbeats"
        )
        registry.gauge(
            "repro_health_up_fraction", "surviving cores / total cores"
        ).set_fn(lambda: self.up_fraction)
        registry.gauge(
            "repro_health_degraded", "1 when surviving capacity is below threshold"
        ).set_fn(lambda: 1.0 if self.degraded else 0.0)
        registry.gauge("repro_health_suspect_nodes", "nodes marked SUSPECT").set_fn(
            lambda: sum(
                1 for n in self.grid.compute_nodes() if n.state is NodeState.SUSPECT
            )
        )
        registry.gauge("repro_health_down_nodes", "nodes out of service").set_fn(
            lambda: sum(
                1 for n in self.grid.compute_nodes() if n.state is NodeState.DOWN
            )
        )

    def _entry(self, node_name: str) -> NodeHealth:
        entry = self._nodes.get(node_name)
        if entry is None:
            entry = self._nodes[node_name] = NodeHealth()
        return entry

    # -- event intake ----------------------------------------------------
    def record_heartbeat(self, node_name: str, t: float) -> None:
        """A successful attempt (or explicit probe) touched the node.

        Lock-free on the hot path: this fires for every node of every
        completed job, and a plain timestamp store on a pre-existing
        entry is atomic enough (entries are created under the lock).
        """
        entry = self._nodes.get(node_name)
        if entry is None:
            with self._lock:
                entry = self._entry(node_name)
        entry.last_heartbeat = t
        if self._c_heartbeats is not None:
            self._c_heartbeats.inc()

    def record_failure(self, node_name: str, t: float) -> bool:
        """Count an attempt failure against the node.

        Returns ``True`` when the node just crossed the flapping
        threshold and should be marked SUSPECT by the caller.
        """
        if self._c_failures is not None:
            self._c_failures.inc()
        with self._lock:
            entry = self._entry(node_name)
            entry.failures_total += 1
            entry.last_failure = t
            window = entry.failures
            window.append(t)
            while window and window[0] < t - self.policy.window_s:
                window.popleft()
            if entry.suspected_at is None and len(window) >= self.policy.suspect_after:
                entry.suspected_at = t
                self._suspects += 1
                return True
            return False

    def record_down(self, node_name: str, t: float) -> None:
        """The node left service entirely (killed / crashed)."""
        with self._lock:
            entry = self._entry(node_name)
            entry.down_at = t
            if entry.suspected_at is not None:
                self._suspects -= 1
            entry.suspected_at = None

    def record_up(self, node_name: str, t: float) -> None:
        """The node rejoined service; its history restarts clean."""
        with self._lock:
            entry = self._entry(node_name)
            entry.failures.clear()
            if entry.suspected_at is not None:
                self._suspects -= 1
            entry.suspected_at = None
            entry.down_at = None
            entry.last_heartbeat = t

    # -- decisions ---------------------------------------------------------
    def due_probation(self, t: float) -> list[str]:
        """SUSPECT nodes whose quiet period has elapsed, oldest first."""
        if not self._suspects:
            # unsynchronised fast path: a stale zero only defers the rejoin
            # to the next dispatch round, and zero is the steady state —
            # this runs once per round so it must not take the lock
            return []
        with self._lock:
            due = [
                (entry.suspected_at, name)
                for name, entry in self._nodes.items()
                if entry.suspected_at is not None and self._probation_end(entry) <= t
            ]
        return [name for _, name in sorted(due)]

    def probation_ends_after(self, t: float) -> Optional[float]:
        """The earliest end of a SUSPECT node's quiet period later than
        ``t``, or ``None``: when the distributor must look again."""
        if not self._suspects:
            return None  # same unsynchronised fast path as due_probation
        with self._lock:
            ends = [
                self._probation_end(entry)
                for entry in self._nodes.values()
                if entry.suspected_at is not None
            ]
        return min((end for end in ends if end > t), default=None)

    def _probation_end(self, entry: NodeHealth) -> float:
        # one float expression for both the due test and the wake-up time,
        # so a round at exactly the returned end always finds the node due
        return max(entry.suspected_at, entry.last_failure or 0.0) + self.policy.probation_s

    @property
    def up_fraction(self) -> float:
        """Surviving capacity as a fraction of the whole machine."""
        total = self.grid.cores_total
        return self.grid.cores_up / total if total else 1.0

    @property
    def degraded(self) -> bool:
        """Below the capacity threshold segments are considered degraded."""
        return self.up_fraction < self.policy.degraded_below

    def snapshot(self) -> dict:
        """JSON-ready health summary (portal cluster status)."""
        suspect, down = [], []
        for node in self.grid.compute_nodes():
            if node.state is NodeState.SUSPECT:
                suspect.append(node.name)
            elif node.state is NodeState.DOWN:
                down.append(node.name)
        with self._lock:
            failures = {
                name: entry.failures_total
                for name, entry in self._nodes.items()
                if entry.failures_total
            }
        return {
            "degraded": self.degraded,
            "up_fraction": round(self.up_fraction, 4),
            "cores_up": self.grid.cores_up,
            "cores_total": self.grid.cores_total,
            "suspect_nodes": suspect,
            "down_nodes": down,
            "failures_by_node": failures,
        }

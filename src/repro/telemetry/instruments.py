"""Instrumentation shims: the bridge between subsystems and the registry.

Each shim owns the metric families for one subsystem and pre-binds the
hot-path children at construction time (so recording is one attribute
access + one method call, never a registry lookup).  The highest-rate
counters — the dispatch loop's per-round tallies — stay *plain ints*
that the registry reads through ``set_fn`` callbacks at scrape time, so
the scheduling hot path pays nothing for being exported.  The legacy
``stats()`` dict shapes survive as thin adapters, so PR 1–3 consumers
keep working unchanged.

Everything degrades to near-zero cost under a
:class:`~repro.telemetry.registry.NullRegistry`: the pre-bound children
are shared no-op singletons, and the span/event paths are gated on the
single ``on`` flag so no clock is read and no object allocated.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.telemetry.events import EventLog
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import Span, Tracer

__all__ = [
    "AnalysisTelemetry",
    "bind_compile_counts",
    "DispatchTelemetry",
    "DurabilityTelemetry",
    "ExploreTelemetry",
    "FleetTelemetry",
    "PortalTelemetry",
]

#: ``JobDistributor.stats()["dispatch"]`` keys, in their legacy order.
DISPATCH_KEYS = (
    "requests",
    "coalesced",
    "rounds",
    "jobs_examined",
    "placements_tried",
    "jobs_started",
)

#: ``JobDistributor.stats()["faults"]`` keys, in their legacy order.
FAULT_KINDS = (
    "retries",
    "timeouts",
    "wall_timeouts",
    "reroutes",
    "node_failures",
    "jobs_orphaned",
    "nodes_suspected",
    "nodes_rejoined",
    "nodes_recovered",
    "nodes_joined",
    "nodes_removed",
)

_DISPATCH_HELP = {
    "requests": "dispatch() calls (submit/completion/fault)",
    "coalesced": "dispatch requests merged into a drain in flight",
    "rounds": "scheduling rounds actually run",
    "jobs_examined": "queue entries the policy visited",
    "placements_tried": "candidate packings attempted",
    "jobs_started": "jobs handed to the execution backend",
}


class DispatchTelemetry:
    """Metrics + traces + events for one :class:`JobDistributor`.

    Owns a *per-distributor* registry by default so counters never bleed
    between instances (the dispatch benchmarks assert exact per-run
    deltas); pass a shared registry to aggregate several distributors.
    ``clock`` is the distributor's ``now_fn`` — under the DES backend
    every event is stamped with *virtual* time, and so are job traces:
    they are derived on demand (:meth:`job_trace`) from the timestamps
    the distributor already stamps on the job, never recorded inline.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        policy: str = "unknown",
    ) -> None:
        if registry is None:
            registry = MetricsRegistry(clock=clock)
        self.registry = registry
        #: single gate for the optional work (observations, timing reads).
        self.on = registry.enabled
        self.clock = clock if clock is not None else registry.clock
        self.events = EventLog(self.clock, capacity=1024)

        reg = registry
        #: the distributor's hot-path counters: plain ints it bumps with
        #: ``+=`` inside the scheduling loop.  The registry families read
        #: them through ``set_fn`` callbacks at scrape time (the respcache
        #: pattern), so counting costs the same with telemetry on or off.
        self.counters = dict.fromkeys(DISPATCH_KEYS, 0)
        self.faults = dict.fromkeys(FAULT_KINDS, 0)
        for key in DISPATCH_KEYS:
            reg.counter(f"repro_dispatch_{key}_total", _DISPATCH_HELP[key]).set_fn(
                lambda k=key: self.counters[k]
            )
        fault_family = reg.counter(
            "repro_faults_events_total",
            "fault-tolerance recovery actions by kind",
            labels=("kind",),
        )
        for kind in FAULT_KINDS:
            fault_family.labels(kind).set_fn(lambda k=kind: self.faults[k])
        self.h_queue_wait = reg.histogram(
            "repro_dispatch_queue_wait_seconds",
            "time from submit (or previous attempt end) to attempt start",
        )
        self.h_run = reg.histogram(
            "repro_dispatch_run_seconds", "per-attempt run time"
        )
        self.h_round = reg.histogram(
            "repro_dispatch_round_seconds",
            "wall time of one scheduling round",
            labels=("policy",),
        ).labels(policy)
        self.g_queued = reg.gauge(
            "repro_dispatch_jobs_queued", "jobs queued or dependency-held"
        )
        self.g_running = reg.gauge("repro_dispatch_jobs_running", "jobs running")

    # -- job lifecycle ------------------------------------------------------
    def job_started(self, job) -> None:
        """Attempt is launching: record its queue wait.

        The wait reference is the previous attempt's end for retries
        (the backoff + requeue interval), the submit time for attempt 1.
        All timestamps are reused from the job object — no clock reads.
        """
        if not self.on:
            return
        ref = job.attempts[-1].finished_at if job.attempts else job.submitted_at
        if ref is not None and job.started_at is not None:
            self.h_queue_wait.observe(job.started_at - ref)

    def attempt_finished(self, job, outcome: str, t: float) -> None:
        """Record the finished attempt's run time."""
        if not self.on:
            return
        if job.started_at is not None:
            self.h_run.observe(t - job.started_at)

    # -- traces --------------------------------------------------------------
    @staticmethod
    def job_trace(job) -> Span:
        """Materialise the job's span tree from its attempt lineage.

        Nothing is *recorded* on the dispatch path: the job object
        already carries every timestamp a trace needs (stamped with the
        distributor's ``now_fn``, so virtual seconds under the DES
        backend), and the PR 3 attempt lineage is exactly the sibling
        attempt-span structure.  The tree is built only when a debugging
        surface (``GET /debug/trace/<job_id>``) asks for it — which is
        also why it works even with a :class:`NullRegistry`: a pure
        derivation has no hot-path cost to switch off.
        """
        root = Span("job", job.submitted_at)
        root.set(name=job.request.name, owner=job.request.owner, state=job.state.value)
        prev_end = job.submitted_at
        for a in job.attempts:
            if a.started_at is not None:
                root.child("queue_wait", prev_end, a.started_at)
            attempt = root.child(f"attempt-{a.no}", a.started_at, a.finished_at)
            attempt.set(outcome=a.outcome, nodes=sorted(a.placement))
            if a.error:
                attempt.set(error=a.error)
            if a.finished_at is not None:
                prev_end = a.finished_at
        state = job.state.value
        if state == "running":
            root.child("queue_wait", prev_end, job.started_at)
            root.child(f"attempt-{job.attempt_epoch}", job.started_at).set(
                nodes=sorted(job.placement)
            )
        elif state in ("queued", "retrying"):
            root.child("queue_wait", prev_end)  # still waiting (or backing off)
        if job.finished_at is not None:
            root.finish(job.finished_at)
        return root

    # -- legacy stats() adapters -------------------------------------------
    def dispatch_counters(self) -> dict:
        """The PR 1 ``stats()["dispatch"]`` dict (a defensive copy)."""
        return dict(self.counters)

    def fault_counters(self) -> dict:
        """The PR 3 ``stats()["faults"]`` dict (a defensive copy)."""
        return dict(self.faults)


#: ``DurabilityStore.stats`` keys exported as counters, in export order.
DURABILITY_KEYS = (
    "records",
    "bytes",
    "fsyncs",
    "snapshots",
    "compactions",
    "segments_deleted",
    "torn_tail_dropped_bytes",
)

_DURABILITY_HELP = {
    "records": "journal records appended",
    "bytes": "journal bytes written (frames incl. headers)",
    "fsyncs": "fsync calls issued by the journal",
    "snapshots": "state snapshots written",
    "compactions": "log compactions performed",
    "segments_deleted": "journal segments removed by compaction",
    "torn_tail_dropped_bytes": "bytes dropped from torn journal tails",
}


class DurabilityTelemetry:
    """Metrics for the write-ahead journal and recovery path.

    The store's hot-path tallies stay plain ints read through ``set_fn``
    at scrape time (the dispatch-counter pattern); only the fsync
    latency histogram records inline — an fsync already costs a syscall,
    so one observation alongside it is noise.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.on = registry.enabled
        family = registry.counter(
            "repro_durability_journal_total",
            "write-ahead journal activity by kind",
            labels=("kind",),
        )
        self._children = {key: family.labels(key) for key in DURABILITY_KEYS}
        self.h_fsync = registry.histogram(
            "repro_durability_fsync_seconds", "journal fsync latency"
        )
        self.g_snapshot_lsn = registry.gauge(
            "repro_durability_snapshot_lsn", "LSN covered by the latest snapshot"
        )
        self.g_recovery_s = registry.gauge(
            "repro_durability_recovery_seconds", "duration of the last recovery"
        )
        self.c_recoveries = registry.counter(
            "repro_durability_recoveries_total", "recover_distributor boots"
        )

    def bind_store(self, store) -> None:
        """Export ``store.stats`` and hook its fsync latency observer."""
        for key in DURABILITY_KEYS:
            self._children[key].set_fn(lambda k=key, s=store: s.stats[k])
        if self.on:
            store.observe_fsync = self.h_fsync.observe

    def recovery_done(self, report) -> None:
        """Tally one finished :class:`RecoveryReport`."""
        self.c_recoveries.inc()
        self.g_recovery_s.set(report.duration_s)


#: ``ScalingManager`` action kinds exported as labeled counters.
FLEET_ACTIONS = ("scale_out", "scale_in", "reclaim", "rejected")


class FleetTelemetry:
    """Metrics for the elastic fleet manager.

    Node-seconds are the fleet's cost currency: every manager tick
    accrues ``(nodes alive in pool) × (seconds since last tick)`` into a
    per-pool counter, which is exactly what the bench's cost/latency
    frontier integrates.  The fleet-size and pending-scale gauges read
    manager state through ``set_fn`` at scrape time, so steady-state
    ticks do no registry work; the scaling-lag histogram records how
    long a scale-out decision took to become usable capacity (warm-up
    included).
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.on = registry.enabled
        self.c_node_seconds = registry.counter(
            "repro_fleet_node_seconds_total",
            "node-seconds accrued by fleet pool (the cost axis)",
            labels=("pool",),
        )
        self.c_actions = registry.counter(
            "repro_fleet_actions_total",
            "scaling decisions executed, by kind",
            labels=("kind",),
        )
        self._actions = {kind: self.c_actions.labels(kind) for kind in FLEET_ACTIONS}
        self.g_size = registry.gauge(
            "repro_fleet_nodes", "nodes currently joined through the fleet manager"
        )
        self.g_pending = registry.gauge(
            "repro_fleet_pending_scale",
            "scale-outs decided but still warming up (not yet capacity)",
        )
        self.h_lag = registry.histogram(
            "repro_fleet_scaling_lag_seconds",
            "time from a scale-out decision to the node joining the grid",
        )

    def bind_manager(self, manager) -> None:
        """Point gauges and node-seconds at live manager state.

        The manager accrues node-seconds into plain floats on its tick
        path; the counter children read them through ``set_fn`` at
        scrape time (the dispatch-counter pattern).
        """
        self.g_size.set_fn(lambda: len(manager.managed_nodes()))
        self.g_pending.set_fn(lambda: len(manager.pending()))
        for pool in manager.pools:
            self.c_node_seconds.labels(pool.name).set_fn(
                lambda p=pool.name: manager.node_seconds[p]
            )

    def action(self, kind: str) -> None:
        self._actions[kind].inc()

    def joined(self, lag_s: float) -> None:
        if self.on:
            self.h_lag.observe(lag_s)


class AnalysisTelemetry:
    """Counters for the static concurrency analyzer's portal surfaces.

    ``surface`` distinguishes explicit ``POST /api/lint`` calls from the
    implicit pre-submit pass on ``POST /api/jobs``; findings are counted
    by severity so a dashboard can watch the error/warning mix students
    are producing over a semester.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.on = registry.enabled
        self.c_runs = registry.counter(
            "repro_analysis_runs_total",
            "static analysis runs by portal surface",
            labels=("surface",),
        )
        self.c_findings = registry.counter(
            "repro_analysis_findings_total",
            "static analysis findings by severity",
            labels=("severity",),
        )

    def report_done(self, surface: str, report) -> None:
        """Tally one finished :class:`~repro.analysis.model.AnalysisReport`."""
        self.c_runs.labels(surface).inc()
        for diag in report.diagnostics:
            self.c_findings.labels(str(diag.severity)).inc()


def bind_compile_counts(registry: MetricsRegistry, counts: Callable[[], dict]) -> None:
    """Export gcc/g++ compile outcomes as ``repro_compile_total{outcome}``.

    ``counts`` returns the toolchains' plain-int tallies (``hit``: served
    from the compile memory, ``miss``: compiled, ``failed``); the registry
    reads it only at scrape time, so compiling pays nothing for it.
    """
    family = registry.counter(
        "repro_compile_total", "gcc/g++ compiles by outcome", labels=("outcome",)
    )
    for outcome in counts():
        family.labels(outcome).set_fn(lambda o=outcome: counts()[o])


class ExploreTelemetry:
    """Counters for the systematic schedule explorer.

    ``repro_explore_states_total`` counts scheduler steps executed (the
    throughput the states/sec bench reports), ``..._pruned_total`` the
    sleep-set-blocked runs DPOR abandoned, and the reduction-ratio gauge
    holds the latest exploration's online estimate of "naive schedules
    per DPOR schedule" (a lower bound — it only counts branch points at
    states DPOR actually visited; ``bench_explorer.py`` measures the
    exact ratio by running both algorithms).
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.on = registry.enabled
        self.c_schedules = registry.counter(
            "repro_explore_schedules_total",
            "schedules executed by the explorer, by algorithm",
            labels=("algorithm",),
        )
        self.c_states = registry.counter(
            "repro_explore_states_total",
            "scheduler steps executed during exploration",
        )
        self.c_pruned = registry.counter(
            "repro_explore_pruned_total",
            "runs abandoned by the DPOR sleep set as redundant",
        )
        self.g_ratio = registry.gauge(
            "repro_explore_reduction_ratio",
            "estimated naive/DPOR schedule ratio of the last exploration",
        )

    def record(self, result) -> None:
        """Tally one finished :class:`~repro.interleave.explorer.ExplorationResult`."""
        if not self.on:
            return
        self.c_schedules.labels(result.algorithm).inc(result.schedules_run)
        self.c_states.inc(result.states_explored)
        self.c_pruned.inc(result.pruned)
        if result.algorithm == "dpor" and result.schedules_run:
            self.g_ratio.set(
                (1 + result.naive_branch_points) / result.schedules_run
            )


class PortalTelemetry:
    """Metrics + request traces for one :class:`PortalApp`.

    Shares the distributor's registry by default so ``GET /metrics``
    serves one unified snapshot: dispatch, faults, health, cluster,
    cache and portal families side by side.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.on = registry.enabled
        self.clock = registry.clock
        self.tracer = Tracer(self.clock, capacity=256)
        self._req_ids = itertools.count(1)

        reg = registry
        conditional = reg.counter(
            "repro_portal_conditional_total",
            "conditional-GET outcomes against the response cache",
            labels=("result",),
        )
        #: legacy portal counter key → pre-bound child.
        self.c = {
            "requests": reg.counter(
                "repro_portal_requests_total", "WSGI requests received"
            ),
            "cache_hits": conditional.labels("hit"),
            "cache_misses": conditional.labels("miss"),
            "not_modified": conditional.labels("not_modified"),
            "bytes_streamed": reg.counter(
                "repro_portal_streamed_bytes_total", "bytes served via streaming"
            ),
            "sessions_swept": reg.counter(
                "repro_portal_sessions_swept_total", "expired sessions removed"
            ),
        }
        self.h_request = reg.histogram(
            "repro_portal_request_seconds",
            "request latency by route pattern",
            labels=("route",),
        )
        self.c_responses = reg.counter(
            "repro_portal_responses_total", "responses by status code", labels=("status",)
        )
        self.g_inflight = reg.gauge(
            "repro_portal_inflight_requests", "requests currently being handled"
        )

    def bind_router(self, router) -> None:
        """Export the router's tier counters without touching its hot path."""
        routed = self.registry.counter(
            "repro_portal_routed_total", "dispatches by router tier", labels=("tier",)
        )
        counters = router.counters
        routed.labels("static").set_fn(lambda: counters["routed_static"])
        routed.labels("dynamic").set_fn(lambda: counters["routed_dynamic"])

    def bind_sessions(self, sessions) -> None:
        self.registry.gauge(
            "repro_portal_active_sessions", "live portal sessions"
        ).set_fn(lambda: len(sessions))

    # -- request lifecycle --------------------------------------------------
    def request_started(self, request) -> Optional[Span]:
        """Open the request trace; returns the root span (None when off).

        The span is also stashed on ``request.tspan`` so downstream
        layers (the conditional-GET path) can annotate it without a
        tracer lookup.
        """
        self.g_inflight.inc()
        if not self.on:
            return None
        span = self.tracer.start("request", f"req-{next(self._req_ids)}")
        span.set(method=request.method, path=request.path)
        request.tspan = span
        return span

    def request_done(self, span: Optional[Span], route: str, status: int, dt: float) -> None:
        """Close the books on one request."""
        self.g_inflight.dec()
        self.h_request.labels(route).observe(dt)
        self.c_responses.labels(status).inc()
        if span is not None:
            span.finish(span.start + dt).set(route=route, status=status)

    def portal_counters(self) -> dict:
        """The portal counters ``PortalApp.stats()`` reports."""
        return {key: int(child.value) for key, child in self.c.items()}

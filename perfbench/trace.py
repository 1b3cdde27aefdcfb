"""In-memory span recorder for the traced run, and the self-time fold.

Spans are recorded from the benchmark's own code by wrapping the
public functions each layer exposes (``JobDistributor.submit``,
``Scheduler.select``, ``JobJournal.record_*``, ``ExecutionBackend.launch``,
the WSGI apps, the bus proxy, ``Toolchain.compile``).  Wrappers are
installed on *instances*, so the untraced run executes the unmodified
code path.

A span is ``[id, parent_id, trace_id, name, start, end, tag]``; the
name's first dotted component is its layer.  Spans nest through a
per-thread stack; work handed to another thread (a bus request served
on the service thread) names its parent explicitly.  A span's self time
is its duration minus the part of its interval its children cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path

from common import mean, percentile

#: span-name prefixes that are layers (the repo's modules), in report order;
#: any other prefix is the benchmark's own operation span.
LAYER_ORDER = ("portal", "bus", "distributor", "scheduler", "journal", "backend", "toolchain")

#: spans above this count are dropped from the trace file (never from the fold).
MAX_WRITTEN_SPANS = 50_000


def layer_of(name: str) -> str:
    prefix = name.split(".", 1)[0]
    return prefix if prefix in LAYER_ORDER else "op"


class Tracer:
    """Collects spans in memory; :meth:`write` dumps them at exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: free-form label stamped on new spans (the backlog's policy).
        self.tag = ""

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, parent=None) -> list:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        span = [
            sid,
            parent[0] if parent else 0,
            parent[2] if parent else sid,
            name,
            time.perf_counter(),
            0.0,
            self.tag,
        ]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[5] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)
        self.spans.append(span)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished root span whose interval was measured elsewhere."""
        sid = next(self._ids)
        self.spans.append([sid, 0, sid, name, start, end, self.tag])

    def wrap(self, obj, attr: str, name: str) -> None:
        """Replace ``obj.attr`` (a bound method) by a span-recording wrapper."""
        fn = getattr(obj, attr)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            span = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)

        setattr(obj, attr, traced)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "trace", "name", "start", "end", "tag"],
                    "total": len(self.spans),
                    "spans": self.spans[:MAX_WRITTEN_SPANS],
                },
                fh,
                separators=(",", ":"),
            )


class JobTimes:
    """Wall-clock submit, launch and completion instants per job id."""

    def __init__(self) -> None:
        self.submitted: dict[str, float] = {}
        self.launched: dict[str, float] = {}
        self.done: dict[str, float] = {}

    def metrics(self) -> dict:
        waits = [self.launched[j] - t for j, t in self.submitted.items() if j in self.launched]
        runs = [t - self.launched[j] for j, t in self.done.items() if j in self.launched]
        return {
            "backend.queue_wait_ms": (mean(waits) * 1e3, "ms"),
            "backend.run_ms": (mean(runs) * 1e3, "ms"),
        }


def trace_distributor(tracer: Tracer, dist) -> JobTimes:
    """Span the distributor's public entry points and what it calls out to.

    ``dispatch`` is re-entered from completion callbacks, which resolve
    it through the instance, so both submit- and completion-driven
    scheduling rounds are covered.  Each launched handle gets its
    completion callbacks wrapped as ``distributor.complete`` spans, and
    its launch-to-done interval recorded as a ``backend.run`` span.
    """
    times = JobTimes()
    begin, end = tracer.begin, tracer.end
    submit = dist.submit

    def traced_submit(request):
        span = begin("distributor.submit")
        try:
            job = submit(request)
        finally:
            end(span)
        times.submitted.setdefault(job.id, span[4])
        return job

    dist.submit = traced_submit
    tracer.wrap(dist, "dispatch", "distributor.dispatch")
    tracer.wrap(dist.scheduler, "select", "scheduler.select")
    if dist.journal is not None:
        for method in ("record_submit", "record_start", "record_attempt",
                       "record_requeue", "record_seal", "snapshot"):
            tracer.wrap(dist.journal, method, "journal." + method)
    backend = dist.backend
    launch = backend.launch

    def traced_launch(job):
        span = begin("backend.launch")
        try:
            handle = launch(job)
        finally:
            end(span)
        t_launch = span[4]
        times.launched.setdefault(job.id, t_launch)
        on_done = handle.on_done

        def finished(j) -> None:
            t_done = time.perf_counter()
            times.done.setdefault(j.id, t_done)
            tracer.record("backend.run", t_launch, t_done)

        on_done(finished)

        def traced_on_done(cb):
            def completion(j):
                inner = begin("distributor.complete")
                try:
                    cb(j)
                finally:
                    end(inner)

            on_done(completion)

        handle.on_done = traced_on_done
        return handle

    backend.launch = traced_launch
    return times


def trace_bus(tracer: Tracer, bus, service_queue: str, server) -> None:
    """Link service-side handling to the client call that caused it.

    The client's ``send`` to the service queue notes which span is
    waiting on (reply queue, correlation id); the service's ``receive``
    opens a ``distributor.handler`` span under that client span on the
    service thread, and the reply hook closes it.
    """
    waiting: dict[tuple, list] = {}
    send, receive, reply = bus.send, bus.receive, server.on_reply

    def key_of(raw) -> tuple:
        msg = json.loads(raw)
        return (msg.get("reply_to"), msg.get("corr"))

    def traced_send(queue, message):
        if queue == service_queue:
            waiting[key_of(message)] = tracer.current()
        return send(queue, message)

    def traced_receive(queue, timeout=None):
        raw = receive(queue, timeout)
        if raw is not None and queue == service_queue:
            tracer.begin("distributor.handler", parent=waiting.pop(key_of(raw), None))
        return raw

    def traced_reply(queue, data):
        span = tracer.current()
        if span is not None and span[3] == "distributor.handler":
            tracer.end(span)
        return reply(queue, data)

    bus.send = traced_send
    bus.receive = traced_receive
    server.on_reply = traced_reply


class Fold:
    """Self times of every span, and per-layer sums along chosen roots."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[int, list[list]] = {}
        for s in spans:
            if s[1]:
                self.children.setdefault(s[1], []).append(s)
        self.self_time = {s[0]: self._self(s) for s in spans}

    def _self(self, span: list) -> float:
        start, end = span[4], span[5]
        covered, reach = 0.0, start
        for child in sorted(self.children.get(span[0], ()), key=lambda c: c[4]):
            lo, hi = max(child[4], reach), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return max(0.0, (end - start) - covered)

    def subtree_by_layer(self, root: list) -> dict[str, float]:
        """Self time per layer over ``root`` and all its descendants."""
        out: dict[str, float] = {}
        todo = [root]
        while todo:
            span = todo.pop()
            layer = layer_of(span[3])
            out[layer] = out.get(layer, 0.0) + self.self_time[span[0]]
            todo.extend(self.children.get(span[0], ()))
        return out

    def layer_self_percentiles(self) -> dict[str, tuple]:
        """(p50, p99) self seconds per layer over its call spans.

        ``backend.run`` spans are job lifetimes, not calls, and are left out.
        """
        per: dict[str, list[float]] = {}
        for s in self.spans:
            if s[3] == "backend.run":
                continue
            layer = layer_of(s[3])
            if layer != "op":
                per.setdefault(layer, []).append(self.self_time[s[0]])
        return {k: (percentile(v, 50), percentile(v, 99)) for k, v in per.items()}


def durations(spans, name: str, tag: str | None = None) -> list[float]:
    return [s[5] - s[4] for s in spans
            if s[3] == name and (tag is None or s[6] == tag)]


#: counters of a layer beyond its self times; a workload that bypasses the
#: layer reports none of them.  ``distributor.handler_us`` is service-side
#: time, which only exists behind the bus.
LAYER_COUNTERS = {
    "portal": ("portal.self_us", "portal.not_modified_ratio", "portal.render_ratio"),
    "bus": ("bus.rpcs_per_req", "bus.rtt_us", "bus.rtt_p99_us", "bus.overhead_us",
            "distributor.handler_us"),
    "toolchain": ("toolchain.compile_ms", "toolchain.compile_share"),
}


def layer_names(*layers: str) -> tuple[str, ...]:
    """Every per-layer metric of ``layers``: self times and counters."""
    return tuple(name for layer in layers
                 for name in (f"{layer}.self_p50_us", f"{layer}.self_p99_us",
                              f"{layer}.self_share", *LAYER_COUNTERS.get(layer, ())))


def policy_names(*policies: str) -> tuple[str, ...]:
    """The per-policy scheduler and distributor metrics of ``policies``."""
    return tuple(f"{policy}.{metric}" for policy in policies
                 for metric in ("scheduler.select_us", "scheduler.examined_per_job",
                                "scheduler.probes_per_job", "distributor.rounds_per_job",
                                "wait_p99_s"))


def blocking_by_layer(fold: Fold, ops: list[list]) -> tuple[dict[str, float], float]:
    """Self time per layer over the subtrees of ``ops``, and the ops' total time."""
    blocking: dict[str, float] = {}
    for op in ops:
        for layer, t in fold.subtree_by_layer(op).items():
            blocking[layer] = blocking.get(layer, 0.0) + t
    return blocking, sum(op[5] - op[4] for op in ops)


def layer_metrics(fold: Fold, blocking: dict[str, float], total: float) -> dict:
    """Per-layer p50/p99 self time and blocking-path share metrics.

    Only layers with spans are reported; the rest are the workload's
    bypassed layers.
    """
    out = {}
    attributed = 0.0
    for layer, (p50, p99) in fold.layer_self_percentiles().items():
        out[f"{layer}.self_p50_us"] = (p50 * 1e6, "us")
        out[f"{layer}.self_p99_us"] = (p99 * 1e6, "us")
        share = blocking.get(layer, 0.0) / total
        attributed += share
        out[f"{layer}.self_share"] = (share, "ratio")
    out["trace.unattributed_ratio"] = (max(0.0, 1.0 - attributed), "ratio")
    return out


class Before:
    """Counters of a portal-fronted system when its traced phase starts."""

    def __init__(self, dist, store) -> None:
        self.dispatch = dist.stats()["dispatch"]
        self.store = dict(store.stats)
        self.jobs = len(dist.jobs)


def portal_metrics(fold: Fold, dist, store, before: Before) -> dict:
    """The layer counters ``classroom`` and ``lab`` share, over the traced phase.

    The scheduler figures are the one policy these portals run (FIFO).
    """
    spans = fold.spans
    dispatch = dist.stats()["dispatch"]
    started = dispatch["jobs_started"] - before.dispatch["jobs_started"]
    submitted = len(dist.jobs) - before.jobs
    new_jobs = [j for j in list(dist.jobs.values())[before.jobs:] if j.started_at is not None]
    journal = sum(s[5] - s[4] for s in spans if s[3].startswith("journal."))

    def per_started(key: str) -> float:
        return (dispatch[key] - before.dispatch[key]) / started

    return {
        "fifo.scheduler.select_us": (mean(durations(spans, "scheduler.select")) * 1e6, "us"),
        "fifo.scheduler.examined_per_job": (per_started("jobs_examined"), "count"),
        "fifo.scheduler.probes_per_job": (per_started("placements_tried"), "count"),
        "fifo.distributor.rounds_per_job": (per_started("rounds"), "count"),
        "fifo.wait_p99_s": (
            percentile([j.started_at - j.submitted_at for j in new_jobs], 99), "s"),
        "distributor.submit_us": (mean(durations(spans, "distributor.submit")) * 1e6, "us"),
        "journal.us_per_job": (journal / submitted * 1e6, "us"),
        "journal.records_per_job": (
            (store.stats["records"] - before.store["records"]) / submitted, "count"),
        "journal.bytes_per_job": ((store.stats["bytes"] - before.store["bytes"]) / submitted,
                                  "B"),
        "journal.fsyncs": (store.stats["fsyncs"] - before.store["fsyncs"], "count"),
        "portal.self_us": (mean(fold.self_time[s[0]] for s in spans
                                if s[3] == "portal.request") * 1e6, "us"),
        "backend.launch_us": (mean(durations(spans, "backend.launch")) * 1e6, "us"),
    }

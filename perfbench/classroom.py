"""Workload ``classroom``: logged-in students polling the scale-out portal.

Students reach one distributor through two ``FrontendFleet`` workers over
the in-memory bus (no modelled reply latency) using ``PortalClient`` with
conditional GET.  The request mix is the loadgen model's
(``repro.loadgen.DEFAULT_MIX``) over the routes the frontend serves:
status polls, output polls, job lists, ``whoami`` and submits of a short
real-process job over ``jobs.submit``, so response caches keep being
invalidated and the bus submit path runs.  The model's ``file_ops``
class is left out: the scale-out frontend has no file routes.  Portal,
response cache, sessions and bus RPC dominate; the queue stays shallow,
so the scheduler does little.

One load thread drives all students.  Phase 1 is open loop at a fixed
offered rate well below saturation; each request is timed from when it
was due, and the generator's lateness is recorded.  Phase 2 is closed
loop: the next request goes out as soon as the previous one returns.

The process runs on one CPU: every request crosses from the client
thread to the bus service thread and back, and on a shared virtual
machine a hand-off to a second, idle virtual CPU waits for the host to
schedule it, which swamped the figures with host noise.

End-to-end figures come from phase 2 and count CPU time of the process,
scaled to nominal machine speed by calibration kernels timed between
its slices (see ``common.Calibration``): ``ops_per_s`` is requests per
CPU-second, ``p50_ms`` and ``tail_ms`` the median and p90 CPU time of a
poll (every request but submits, which also start a process).  On a
shared two-CPU machine the wall-clock latencies of phase 1 moved with
the host: their p90 spread (quartile distance over median) 15-77% in
sets of five seeds, while these spread 2-5% over ten.  The wall-clock
p50/p90/p99 of polls, the submit latency and the generator's lateness
are in the report lines.
"""

from __future__ import annotations

import gc
import itertools
import os
import time

import numpy as np

from repro.cluster import ClusterSpec, Grid, JobDistributor, SubprocessBackend
from repro.loadgen import DEFAULT_MIX
from repro.portal import PortalClient
from repro.portal.frontend import FrontendFleet

from common import (Calibration, PortalEntry, mean, open_journal, percentile, remove_tree,
                    timed_setups)
from trace import (Before, Fold, Tracer, blocking_by_layer, durations, layer_metrics,
                   layer_names, policy_names, portal_metrics, trace_bus, trace_distributor)

N_STUDENTS = 12
N_WORKERS = 2
#: completed jobs each student owns before timing starts.
HISTORY_JOBS = 4
#: requests per second offered in the open-loop phase.
OFFERED_RPS = 100.0
#: share of the budget spent in the open-loop phase.
OPEN_SHARE = 0.4
#: requests per second of budget sent in the closed-loop phase.
CLOSED_RPS = 800.0
#: calibrated slices of the closed-loop phase.
CLOSED_CHUNKS = 16
SETUP_REPEATS = 5
#: the generator spins instead of sleeping for the last stretch to a due time.
SPIN_S = 0.001
PASSWORD = "class-pass"
#: loadgen endpoint class -> request kind, for the classes the frontend serves.
KIND_OF = {"status_poll": "status", "output_poll": "output", "list_jobs": "jobs",
           "whoami": "whoami", "submit": "submit"}
#: requests per shuffled block of the mix (renormalised shares times this are whole).
MIX_BLOCK = 48
#: per-layer metrics this workload does not reach: one policy, no compiles
BYPASSED = policy_names("priority", "backfill") + layer_names("toolchain") + (
    "input.peak_queue_depth", "input.parallel_share", "input.unchanged_source_share")
PROXY_CALLS = ("control_state", "status", "submit", "describe", "list_jobs",
               "output_since", "output_fingerprint")


def _token(seed: int, student: int, n: int) -> str:
    return f"out-{seed}-{student}-{n}"


class _Classroom:
    """Distributor + journal + fleet + logged-in students with job history."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.jdir = ctx.fresh_dir("classroom-journal")
        self.store, journal = open_journal(self.jdir)
        self.dist = JobDistributor(Grid(ClusterSpec.uhd_default()), SubprocessBackend(),
                                   journal=journal)
        self.fleet = FrontendFleet(self.dist, n_workers=N_WORKERS, reply_latency_s=0.0)
        self.fleet.start()
        self.apps = [PortalEntry(w) for w in self.fleet.workers]
        self.names = [f"stu{i:02d}" for i in range(N_STUDENTS)]
        self.clients = []
        for i, name in enumerate(self.names):
            self.fleet.users.add_user(name, PASSWORD)
            client = PortalClient(app=self.apps[(i // 2) % N_WORKERS], conditional=True)
            client.login(name, PASSWORD)
            self.clients.append(client)
        #: student index -> ids of the jobs they own, in submission order
        self.jobs: list[list[str]] = [[] for _ in self.names]
        #: job id -> (student index, expected stdout line)
        self.expected: dict[str, tuple[int, str]] = {}
        self.submitted = [0] * N_STUDENTS
        for i in range(N_STUDENTS):
            for _ in range(HISTORY_JOBS):
                self.submit(i)
        if not self.dist.wait_all(60):
            raise RuntimeError("classroom: seeded history did not finish")

    def submit(self, i: int) -> dict:
        token = _token(self.ctx.seed, i, self.submitted[i])
        self.submitted[i] += 1
        data = self.clients[i].submit_job(
            "", name=f"echo-{self.submitted[i]}", argv=["echo", token], timeout_s=30.0)
        job = data["job"]
        self.jobs[i].append(job["id"])
        self.expected[job["id"]] = (i, token)
        return job

    def close(self) -> None:
        self.dist.wait_all(60)
        self.fleet.stop()
        self.store.close()
        remove_tree(self.jdir)


def mix_block() -> list[str]:
    """One block of request kinds in the model's shares, renormalised to
    the served classes (status 21, output 15, jobs 6, whoami 3, submit 3)."""
    served = [(KIND_OF[p.name], p.weight) for p in DEFAULT_MIX if p.name in KIND_OF]
    total = sum(weight for _, weight in served)
    block = [kind for kind, weight in served
             for _ in range(round(weight / total * MIX_BLOCK))]
    if len(block) != MIX_BLOCK:
        raise RuntimeError(f"classroom: mix does not fill a block of {MIX_BLOCK}")
    return block


def _ops(seed: int):
    """Endless seeded request stream: (kind, student, pick).

    Requests come in shuffled blocks with the exact mix shares, each
    student drawn the same number of times per block, and submits go to
    the students in turn; so every seed offers the same share of submits
    and of each read, and all job lists grow alike.  The seed decides the
    order of requests and which student polls when.
    """
    rng = np.random.default_rng(seed)
    block = mix_block()
    students = np.repeat(np.arange(N_STUDENTS), MIX_BLOCK // N_STUDENTS)
    submits = itertools.count()
    while True:
        rng.shuffle(block)
        rng.shuffle(students)
        picks = rng.random(len(block))
        for kind, i, pick in zip(block, students, picks):
            if kind == "submit":
                i = next(submits) % N_STUDENTS
            yield kind, int(i), float(pick)


def _request(room: _Classroom, kind: str, i: int, pick: float) -> bool:
    """One student request; returns whether the response had the right shape."""
    client = room.clients[i]
    if kind == "submit":
        job = room.submit(i)
        return job.get("owner") == room.names[i] and job.get("state") in (
            "queued", "running", "completed")
    if kind == "status":
        data = client.cluster_status()
        return isinstance(data.get("grid"), dict) and "queued" in data
    if kind == "jobs":
        listed = {j["id"] for j in client.jobs()}
        return set(room.jobs[i]) <= listed
    if kind == "whoami":
        return client.whoami().get("username") == room.names[i]
    job_id = room.jobs[i][int(pick * len(room.jobs[i]))]
    data = client.job_output(job_id)
    return isinstance(data.get("stdout"), list) and "state" in data


def _safe(ctx, room, kind, i, pick, tracer) -> bool:
    op = tracer.begin("op.request") if tracer is not None else None
    try:
        ok = _request(room, kind, i, pick)
    except Exception as exc:  # noqa: BLE001 - a refused request is a counted failure
        ok = False
        ctx.problem(f"classroom: {kind} raised {type(exc).__name__}: {exc}")
    if op is not None:
        tracer.end(op)
    return ok


def _open_loop(ctx, room, stream, seconds: float, tracer) -> dict:
    """Fixed offered rate; each request's latency counted from its due time.

    A submitted job is let finish before the next request is due (an
    echo takes a few ms of the 10 ms gap; if it takes longer, the next
    request is late and its latency shows it).  Every run of one seed
    then meets the same sequence of cache hits and misses, instead of
    one that depends on when the job's child process got the CPU.
    """
    interval = 1.0 / OFFERED_RPS
    due = time.perf_counter() + interval
    rec = {"lat": [], "submit_lat": [], "late": [], "bad": 0, "kinds": {}}
    for kind, i, pick in itertools.islice(stream, max(1, int(OFFERED_RPS * seconds))):
        wait = due - time.perf_counter()
        if wait > SPIN_S:
            time.sleep(wait - SPIN_S)
        while time.perf_counter() < due:
            pass  # the last stretch spins: a sleeping CPU wakes late
        start = time.perf_counter()
        ok = _safe(ctx, room, kind, i, pick, tracer)
        end = time.perf_counter()
        if kind == "submit":
            rec["submit_lat"].append(end - due)
            room.dist.wait_all(30)
        else:
            rec["lat"].append(end - due)
        rec["late"].append(start - due)
        rec["bad"] += not ok
        rec["kinds"][kind] = rec["kinds"].get(kind, 0) + 1
        due += interval
    return rec


def _closed_loop(ctx, room, stream, seconds: float, tracer, calibration) -> dict:
    """The next request goes out as soon as the last one returns.

    The phase sends a fixed number of requests (``CLOSED_RPS`` times the
    phase budget) rather than running for a fixed time, and waits for
    each submitted job to finish before the next request, so every run
    of one seed serves each request from the same job table and cache
    state whatever the speed.  The wait itself costs no CPU time of
    this process: the echo runs in a child process, outside it.

    Calibration samples bracket each of ``CLOSED_CHUNKS`` slices, and
    each slice's CPU time is scaled by the mean of the two samples around
    it, so a machine whose speed drifts within the phase is matched
    slice by slice.  Besides the slice totals, each poll's CPU time (of
    the whole process: client, portal and service thread) is kept, scaled
    the same way.
    """
    count = max(CLOSED_CHUNKS, int(CLOSED_RPS * seconds))
    stream = itertools.islice(stream, count)
    bad = 0
    kinds: dict = {}
    cpu = scaled = 0.0
    polls_scaled = []
    t0 = time.perf_counter()
    calibration.sample()
    for chunk in range(CLOSED_CHUNKS):
        polls = []
        c0 = time.process_time()
        for kind, i, pick in itertools.islice(stream, count // CLOSED_CHUNKS
                                              + (chunk < count % CLOSED_CHUNKS)):
            r0 = time.process_time()
            bad += not _safe(ctx, room, kind, i, pick, tracer)
            kinds[kind] = kinds.get(kind, 0) + 1
            if kind == "submit":
                room.dist.wait_all(30)
            else:
                polls.append(time.process_time() - r0)
        used = time.process_time() - c0
        calibration.sample()
        scale = 2 * Calibration.NOMINAL_S / sum(calibration.samples[-2:])
        cpu += used
        scaled += used * scale
        polls_scaled.extend(t * scale for t in polls)
    wall = time.perf_counter() - t0
    return {"rps": count / wall, "per_cpu_s": count / cpu, "scaled": count / scaled,
            "polls": polls_scaled, "n": count, "bad": bad, "kinds": kinds}


def _poll_cpu_ms(closed: dict, q: float) -> float:
    """The ``q``-th percentile of the scaled poll CPU times, in ms."""
    return percentile(closed["polls"], q) * 1e3


def _gate(ctx, room: _Classroom) -> None:
    """Every submitted job finishes and its output reads back exactly."""
    if not room.dist.wait_all(60):
        ctx.fail("classroom: submitted jobs still running after 60 s")
    for job_id, (i, token) in room.expected.items():
        try:
            data = room.clients[i].job_output(job_id)
            ok = data["state"] == "completed" and data["stdout"] == [token]
        except Exception as exc:  # noqa: BLE001 - counted, reported
            ok = False
            ctx.problem(f"classroom: output of {job_id} raised {exc}")
        ctx.check(ok, f"classroom: job {job_id} output did not read back as {token!r}")


def _phases(ctx, room, stream, seconds: float, tracer) -> tuple[dict, dict]:
    gc.collect()
    calibration = Calibration()
    opened = _open_loop(ctx, room, stream, seconds * OPEN_SHARE, tracer)
    closed = _closed_loop(ctx, room, stream, seconds * (1 - OPEN_SHARE), tracer, calibration)
    closed["factor"] = calibration.factor()
    for phase in (opened, closed):
        n = sum(phase["kinds"].values())
        ctx.ok(n - phase["bad"])
        if phase["bad"]:
            ctx.fail(f"classroom: {phase['bad']} responses had the wrong status or shape",
                     phase["bad"])
    return opened, closed


def _properties(ctx, room, opened, closed) -> dict:
    kinds = {k: opened["kinds"].get(k, 0) + closed["kinds"].get(k, 0)
             for k in KIND_OF.values()}
    total = sum(kinds.values())
    requests = sum(a.requests for a in room.apps)
    conditional = sum(a.conditional for a in room.apps)
    props = {
        "submit_share": kinds.get("submit", 0) / total,
        "conditional_share": conditional / requests,
    }
    ctx.note(f"input: students={N_STUDENTS} workers={N_WORKERS} "
             f"offered_rps={OFFERED_RPS:g} "
             f"open_requests={len(opened['lat']) + len(opened['submit_lat'])} "
             f"closed_requests={closed['n']} submit_share={props['submit_share']:.4f} "
             f"conditional_share={props['conditional_share']:.4f}")
    ctx.note(f"open loop: poll p50_ms={percentile(opened['lat'], 50) * 1e3:.3f} "
             f"p90_ms={percentile(opened['lat'], 90) * 1e3:.3f} "
             f"p99_ms={percentile(opened['lat'], 99) * 1e3:.3f} "
             f"submit p50_ms={percentile(opened['submit_lat'], 50) * 1e3:.3f} "
             f"late_p99_ms={percentile(opened['late'], 99) * 1e3:.3f}; "
             f"closed loop: rps={closed['rps']:.1f}")
    return props


def run(ctx) -> dict:
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # threads started from here inherit it
    try:
        return _run(ctx)
    finally:
        os.sched_setaffinity(0, cpus)


def _run(ctx) -> dict:
    room, setup_s = timed_setups(lambda: _Classroom(ctx), _Classroom.close, SETUP_REPEATS)
    stream = _ops(ctx.seed)
    try:
        if not ctx.trace:
            opened, closed = _phases(ctx, room, stream, ctx.seconds, None)
            _properties(ctx, room, opened, closed)
            _gate(ctx, room)
            ctx.note(f"machine: speed_factor={closed['factor']:.4f} around the closed loop; "
                     f"raw req_per_cpu_s={closed['per_cpu_s']:.6g} wall rps={closed['rps']:.6g}")
            return {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (closed["scaled"], "1/s"),
                "p50_ms": (_poll_cpu_ms(closed, 50), "ms"),
                "tail_ms": (_poll_cpu_ms(closed, 90), "ms"),
            }
        _, plain = _phases(ctx, room, stream, ctx.seconds / 2, None)
        tracer = Tracer()
        ctx.tracer = tracer
        times = _install(tracer, room)
        before = Before(room.dist, room.store), _cache_counts(room), _conditionals(room)
        opened, closed = _phases(ctx, room, stream, ctx.seconds / 2, tracer)
        props = _properties(ctx, room, opened, closed)
        out = _layers(tracer, room, times, before, opened)
        out["trace.overhead_ratio"] = (plain["scaled"] / closed["scaled"], "ratio")
        out["input.submit_share"] = (props["submit_share"], "ratio")
        out["input.conditional_share"] = (props["conditional_share"], "ratio")
        _gate(ctx, room)
        return out
    finally:
        room.close()


def _install(tracer: Tracer, room: _Classroom):
    for app in room.apps:
        app.tracer = tracer
    for worker in room.fleet.workers:
        for method in PROXY_CALLS:
            tracer.wrap(worker.proxy, method, "bus.rpc")
    server = room.fleet.service.server
    trace_bus(tracer, room.fleet.bus, server.service_queue, server)
    return trace_distributor(tracer, room.dist)


def _cache_counts(room) -> tuple[int, int]:
    stats = [w.stats()["response_cache"] for w in room.fleet.workers]
    return sum(s["hits"] for s in stats), sum(s["misses"] for s in stats)


def _conditionals(room) -> tuple[int, int]:
    """(conditional GETs, 304 answers) over all workers."""
    return (sum(a.conditional for a in room.apps), sum(a.not_modified for a in room.apps))


def _layers(tracer, room, times, before, opened) -> dict:
    counters0, (hits0, misses0), (conditional0, not_modified0) = before
    spans = tracer.spans
    fold = Fold(spans)
    ops = [s for s in spans if s[3] == "op.request"]
    out = layer_metrics(fold, *blocking_by_layer(fold, ops))
    out.update(portal_metrics(fold, room.dist, room.store, counters0))
    hits, misses = _cache_counts(room)
    conditional, not_modified = _conditionals(room)
    rpc = durations(spans, "bus.rpc")
    out.update({
        "portal.not_modified_ratio": (
            (not_modified - not_modified0) / (conditional - conditional0), "ratio"),
        "portal.render_ratio": ((misses - misses0) / (hits + misses - hits0 - misses0), "ratio"),
        "distributor.handler_us": (
            mean(durations(spans, "distributor.handler")) * 1e6, "us"),
        "bus.rpcs_per_req": (len(rpc) / len(ops), "count"),
        "bus.rtt_us": (mean(rpc) * 1e6, "us"),
        "bus.rtt_p99_us": (percentile(rpc, 99) * 1e6, "us"),
        "bus.overhead_us": (
            mean(fold.self_time[s[0]] for s in spans if s[3] == "bus.rpc") * 1e6, "us"),
        "loadgen.late_ms": (percentile(opened["late"], 99) * 1e3, "ms"),
        **times.metrics(),
    })
    return out

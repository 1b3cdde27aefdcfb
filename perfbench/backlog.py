"""Workload ``backlog``: deep bursts drained under each scheduling policy.

Seeded bursts of mixed jobs go straight into ``JobDistributor.submit`` on
the paper's 4x16 grid with the DES backend and a write-ahead journal.
Each cycle drains one burst once under FIFO, priority and EASY backfill;
cycles take the bursts in turn.  Scheduler, distributor and journal do
nearly all the work and the queue is over a thousand deep; portal and
bus sit idle.

End-to-end figures, each the geometric mean over the three policies:
``ops_per_s`` is jobs completed per CPU-second of submit + drain (the
median pass, scaled to nominal machine speed, see :class:`Calibration`);
``p50_ms`` / ``tail_ms`` are the median and p99 queue wait of a job in
the simulator's virtual time, averaged over the bursts.  The waits are
deterministic for a seed and measure schedule quality, so a faster
scheduler that reorders jobs shows there.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

from repro.cluster import (
    BackfillScheduler,
    ClusterSpec,
    FIFOScheduler,
    Grid,
    JobDistributor,
    JobKind,
    JobRequest,
    PriorityScheduler,
    SimulatedBackend,
)
from repro.desim import Simulator
from repro.durability import DurabilityStore, recover_distributor

from common import (Calibration, geomean, mean, median, open_journal, percentile,
                    remove_tree, timed_setups)
from trace import Fold, Tracer, blocking_by_layer, durations, layer_metrics, layer_names, \
    trace_distributor

POLICIES = (
    ("fifo", FIFOScheduler),
    ("priority", PriorityScheduler),
    ("backfill", BackfillScheduler),
)
#: jobs in one burst; deep enough that O(queue) scheduling rounds show.
N_JOBS = 1200
SETUP_REPEATS = 15
#: independent bursts drawn from one seed; cycles take them in turn, so
#: a run of four cycles drains the first burst twice under each policy.
BURSTS = 3
#: budget seconds per cycle of three passes: about its length on a
#: two-CPU machine at nominal speed, priority's O(queue) pass the longest.
CYCLE_S = 4.5
#: per-layer metrics this workload does not reach: no portal, bus or compiles
BYPASSED = layer_names("portal", "bus", "toolchain") + (
    "loadgen.late_ms", "input.submit_share", "input.conditional_share",
    "input.unchanged_source_share")
#: counts that must repeat exactly on every pass of one policy over one burst.
DETERMINISTIC = ("wait_p50_s", "wait_p99_s", "examined_per_job", "probes_per_job",
                 "rounds_per_job", "records_per_job")


def make_requests(rng: np.random.Generator, n: int) -> list[JobRequest]:
    """70% sequential / 30% parallel (2-16 tasks), lognormal(1, 0.8) durations.

    The mix is stratified: every burst has the same multiset of shapes,
    durations (lognormal quantiles, drawn separately for sequential and
    parallel jobs), runtime over-estimates and priorities 0-2; the seed
    decides which job gets which and in what order.  Bursts then differ
    in the order the scheduler sees, not in how much work they hold.
    """
    def shuffled(values) -> list:
        values = list(values)
        rng.shuffle(values)
        return values

    def lognormal(k: int) -> list[float]:
        normal = statistics.NormalDist()
        return shuffled(math.exp(1.0 + 0.8 * normal.inv_cdf((j + 0.5) / k)) for j in range(k))

    n_parallel = round(0.3 * n)
    shapes = [(2 + k % 15, d) for k, d in enumerate(lognormal(n_parallel))]
    shapes = shuffled(shapes + [(1, d) for d in lognormal(n - n_parallel)])
    overestimate = shuffled(1.0 + 0.5 * (k + 0.5) / n for k in range(n))
    priorities = shuffled(k % 3 for k in range(n))
    return [
        JobRequest(
            name=f"b{i}",
            kind=JobKind.PARALLEL if tasks > 1 else JobKind.SEQUENTIAL,
            n_tasks=tasks,
            sim_duration=duration,
            est_runtime_s=duration * overestimate[i],
            priority=priorities[i],
        )
        for i, (tasks, duration) in enumerate(shapes)
    ]


class _Pass:
    """One policy's distributor over a fresh grid, simulator and journal."""

    def __init__(self, ctx, scheduler_cls) -> None:
        self.jdir = ctx.fresh_dir("backlog-journal")
        self.store, journal = open_journal(self.jdir)
        self.sim = Simulator()
        self.grid = Grid(ClusterSpec.uhd_default())
        sim = self.sim
        self.dist = JobDistributor(
            self.grid, SimulatedBackend(sim), scheduler_cls(),
            now_fn=lambda: sim.now, journal=journal,
        )

    def close(self) -> None:
        self.store.close()
        remove_tree(self.jdir)


def _drive(p: _Pass, requests, tracer: Tracer | None) -> tuple[float, int]:
    """Submit the burst and drain it; returns (cpu_s, peak queue depth)."""
    dist, sim = p.dist, p.sim
    op = tracer.begin("op.pass") if tracer is not None else None
    c0 = time.process_time()
    for request in requests:
        dist.submit(request)
    peak = len(dist.queue)
    if tracer is not None:
        span = tracer.begin("backend.des")
        sim.run()
        tracer.end(span)
    else:
        sim.run()
    cpu = time.process_time() - c0
    if op is not None:
        tracer.end(op)
    return cpu, peak


def _gate(ctx, p: _Pass, n: int, recover: bool) -> dict:
    """Correctness of one drained pass, plus its deterministic counts."""
    dist = p.dist
    by_state = dist.monitor.summary()["by_state"]
    done = by_state.get("completed", 0)
    ctx.ok(done)
    if done != n:
        ctx.fail(f"backlog: {n - done} of {n} jobs not completed: {by_state}", n - done)
    ctx.check(p.grid.cores_free == p.grid.cores_total,
              f"backlog: cores leaked ({p.grid.cores_free}/{p.grid.cores_total})")
    waits = [j.started_at - j.submitted_at for j in dist.jobs.values()]
    counters = dist.stats()["dispatch"]
    store_stats = dict(p.store.stats)
    counts = {
        "wait_p50_s": percentile(waits, 50),
        "wait_p99_s": percentile(waits, 99),
        "examined_per_job": counters["jobs_examined"] / n,
        "probes_per_job": counters["placements_tried"] / n,
        "rounds_per_job": counters["rounds"] / n,
        "records_per_job": store_stats["records"] / n,
        "bytes_per_job": store_stats["bytes"] / n,
        "fsyncs": store_stats["fsyncs"],
    }
    if recover:
        p.store.close()
        store = DurabilityStore(p.jdir, fsync="never")
        try:
            sim = Simulator()
            _, report = recover_distributor(
                store, Grid(ClusterSpec.uhd_default()), SimulatedBackend(sim),
                now_fn=lambda: sim.now,
            )
            ctx.check(report.jobs_restored == n and report.terminal_restored == n,
                      f"backlog: recovery restored {report.jobs_restored}/{n} jobs")
        finally:
            store.close()
    return counts


class _Results:
    """Per-policy scaled pass CPU times, per-burst counts and peak queue depth."""

    def __init__(self) -> None:
        self.cpu: dict[str, list[float]] = {name: [] for name, _ in POLICIES}
        self.counts: dict[str, dict[int, list[dict]]] = {name: {} for name, _ in POLICIES}
        self.peak = 0
        #: ``trace.JobTimes`` of traced passes
        self.times: list = []

    def rates(self) -> dict[str, float]:
        """Jobs per CPU-second of each policy's median pass."""
        return {name: N_JOBS / median(cpu) for name, cpu in self.cpu.items()}

    def count(self, name: str, key: str) -> float:
        """A per-pass count of one policy, averaged over the bursts run."""
        return mean(passes[0][key] for passes in self.counts[name].values())


def _measure(ctx, bursts, seconds: float, results: _Results, calibration: Calibration,
             tracer: Tracer | None = None) -> None:
    """Cycle the three policies, one pass each per cycle, bursts in turn.

    The number of cycles follows from the budget (``CYCLE_S`` per cycle)
    rather than the clock, so every run of one seed does the same work.
    Calibration samples bracket each pass, and its CPU time is scaled by
    the mean of the two, so a machine whose speed drifts within the run
    is matched pass by pass.
    """
    calibration.sample()
    for cycle in range(max(1, round(seconds / CYCLE_S))):
        burst = cycle % len(bursts)
        for name, cls in POLICIES:
            gc.collect()  # the previous pass's garbage is not this pass's cost
            p = _Pass(ctx, cls)
            if tracer is not None:
                tracer.tag = name
                results.times.append(trace_distributor(tracer, p.dist))
            try:
                cpu, peak = _drive(p, bursts[burst], tracer)
                calibration.sample()
                cpu *= 2 * Calibration.NOMINAL_S / sum(calibration.samples[-2:])
                results.peak = max(results.peak, peak)
                seen = results.counts[name].setdefault(burst, [])
                seen.append(_gate(ctx, p, N_JOBS, recover=not seen and burst == 0))
                results.cpu[name].append(cpu)
            finally:
                p.close()


def _deterministic(ctx, results: _Results) -> None:
    """Every pass of one policy over one burst must give the same counts."""
    for name, bursts in results.counts.items():
        for burst, passes in bursts.items():
            for counts in passes[1:]:
                for key in DETERMINISTIC:
                    ctx.check(counts[key] == passes[0][key],
                              f"backlog: {name}.{key} drifted on burst {burst}: "
                              f"{passes[0][key]} -> {counts[key]}")


def run(ctx) -> dict:
    def build():
        rng = np.random.default_rng(ctx.seed)
        bursts = [make_requests(rng, N_JOBS) for _ in range(BURSTS)]
        return bursts, _Pass(ctx, FIFOScheduler)

    (bursts, first), setup_s = timed_setups(build, lambda s: s[1].close(), SETUP_REPEATS)
    first.close()
    parallel_share = mean(sum(r.n_tasks > 1 for r in b) / len(b) for b in bursts)
    calibration = Calibration()
    results = _Results()
    _measure(ctx, bursts, ctx.seconds / (2 if ctx.trace else 1), results, calibration)
    if not ctx.trace:
        _deterministic(ctx, results)
        _notes(ctx, results, parallel_share)
        factor = calibration.factor()
        ctx.note(f"machine: speed_factor={factor:.4f} over {len(calibration.samples)} "
                 f"kernel samples; raw setup_s={setup_s:.6g}")
        waits = {key: geomean(results.count(n, key) for n, _ in POLICIES) * 1e3
                 for key in ("wait_p50_s", "wait_p99_s")}
        return {
            "setup_s": (setup_s / factor, "s"),
            "ops_per_s": (geomean(results.rates().values()), "1/s"),
            "p50_ms": (waits["wait_p50_s"], "ms"),
            "tail_ms": (waits["wait_p99_s"], "ms"),
        }

    tracer = Tracer()
    ctx.tracer = tracer
    traced = _Results()
    _measure(ctx, bursts, ctx.seconds / 2, traced, calibration, tracer)
    for name, bursts_seen in traced.counts.items():
        for burst, passes in bursts_seen.items():
            results.counts[name].setdefault(burst, []).extend(passes)
    _deterministic(ctx, results)
    _notes(ctx, results, parallel_share)
    overhead = geomean(results.rates().values()) / geomean(traced.rates().values())
    return _layers(tracer, results, traced.times, overhead, parallel_share)


def _notes(ctx, results: _Results, parallel_share: float) -> None:
    ctx.note(f"input: jobs={N_JOBS} bursts={len(results.counts['fifo'])} "
             f"peak_queue_depth={results.peak} parallel_share={parallel_share:.3f}")
    for name, rate in results.rates().items():
        ctx.note(f"{name}: jobs_per_s={rate:.1f} passes={len(results.cpu[name])} "
                 + " ".join(f"{key}={results.count(name, key):.6g}" for key in DETERMINISTIC))


def _layers(tracer: Tracer, results: _Results, times: list, overhead: float,
            parallel_share: float) -> dict:
    spans = tracer.spans
    fold = Fold(spans)
    ops = [s for s in spans if s[3] == "op.pass"]
    out = layer_metrics(fold, *blocking_by_layer(fold, ops))
    for name, _ in POLICIES:
        sel = durations(spans, "scheduler.select", name)
        out[f"{name}.scheduler.select_us"] = (mean(sel) * 1e6, "us")
        for key, metric in (("examined_per_job", "scheduler.examined_per_job"),
                            ("probes_per_job", "scheduler.probes_per_job"),
                            ("rounds_per_job", "distributor.rounds_per_job")):
            out[f"{name}.{metric}"] = (results.count(name, key), "count")
        out[f"{name}.wait_p99_s"] = (results.count(name, "wait_p99_s"), "s")
    journal = sum(s[5] - s[4] for s in spans if s[3].startswith("journal."))
    counts = [c for bursts in results.counts.values() for passes in bursts.values()
              for c in passes]
    for key in ("backend.queue_wait_ms", "backend.run_ms"):
        out[key] = (mean(t.metrics()[key][0] for t in times), "ms")
    out.update({
        "distributor.submit_us": (mean(durations(spans, "distributor.submit")) * 1e6, "us"),
        "journal.us_per_job": (journal / (N_JOBS * len(ops)) * 1e6, "us"),
        "journal.records_per_job": (results.count("fifo", "records_per_job"), "count"),
        "journal.bytes_per_job": (mean(c["bytes_per_job"] for c in counts), "B"),
        "journal.fsyncs": (mean(c["fsyncs"] for c in counts), "count"),
        "backend.launch_us": (mean(durations(spans, "backend.launch")) * 1e6, "us"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "input.peak_queue_depth": (results.peak, "count"),
        "input.parallel_share": (parallel_share, "ratio"),
    })
    return out

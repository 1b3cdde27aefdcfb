"""Workload ``lab``: the paper's full path on the monolith portal.

Students write a C source, compile it (gcc when present, the simulated
toolchain otherwise), submit sequential and parallel runs with varying
arguments on ``SubprocessBackend``, poll until the job is done and read
its output back.  A seeded share of submissions keep the previous
source and only change the arguments.  Toolchain and process launch
dominate; portal writes run beside reads.  Only the monolith
``PortalApp`` has the file and compile routes.  One load thread drives
all students, so each run's CPU time can be told apart.

End-to-end figures count CPU time of the process and its children (the
compiler and the job's processes), scaled to nominal machine speed by
a reference gcc compile timed between chunks of runs
(:class:`_ReferenceCompile`): ``p50_ms`` / ``tail_ms`` are the median
and p90 CPU time from submit to output read (p90 is the highest
percentile a run of this length supports with at least ten samples
beyond it); ``ops_per_s`` is runs finished per CPU-second of the phase,
compiles of changed sources included.  On a shared two-CPU machine the
wall-clock runs/s spread 17-23% over ten seeds as other tenants came
and went, the raw CPU figures 10-12%, the scaled ones 2-3% over five.
Wall-clock runs/s and latencies are in the report line.
"""

from __future__ import annotations

import gc
import itertools
import resource
import subprocess
import time

import numpy as np

from repro.cluster import ClusterSpec, Grid, JobDistributor, SubprocessBackend
from repro.portal import PortalClient
from repro.portal.app import PortalApp
from repro.portal.auth import UserStore
from repro.portal.files import FileManager
from repro.portal.jobsvc import JobService
from repro.portal.sessions import SessionStore

from common import (Calibration, PortalEntry, mean, open_journal, percentile, remove_tree,
                    timed_setups)
from trace import (Before, Fold, Tracer, durations, layer_metrics, layer_names, policy_names,
                   portal_metrics, trace_distributor)

N_STUDENTS = 6
SETUP_REPEATS = 5
PASSWORD = "lab-pass"
#: share of submissions that keep the student's previous source.
RESUBMIT_SHARE = 0.5
PARALLEL_SHARE = 0.3
#: runs per shuffled block of the plan (shares times this are whole).
PLAN_BLOCK = 10
#: lab runs per second of budget (about the rate one load thread reaches).
RUNS_PER_S = 7.0
#: runs between calibration samples.
CHUNK_RUNS = 10
#: seconds between job-state polls while a run is in flight.
POLL_S = 0.002
TERMINAL = {"completed", "failed", "cancelled", "timeout"}
#: per-layer metrics this workload does not reach: one policy, no bus, and
#: no response cache (the monolith caches file listings, not job reads)
BYPASSED = policy_names("priority", "backfill") + layer_names("bus") + (
    "portal.not_modified_ratio", "portal.render_ratio", "loadgen.late_ms",
    "input.peak_queue_depth", "input.submit_share", "input.conditional_share")
SOURCE = """#include <stdio.h>
#include <stdlib.h>

int main(int argc, char **argv) {
    const char *rank = getenv("REPRO_RANK");
    printf("v%VERSION% rank=%s", rank ? rank : "0");
    for (int i = 1; i < argc; i++) printf(" %s", argv[i]);
    printf("\\n");
    return 0;
}
"""


class _Lab:
    """A monolith portal over a journaled distributor, students logged in."""

    def __init__(self, ctx) -> None:
        self.root = ctx.fresh_dir("lab-homes")
        self.jdir = ctx.fresh_dir("lab-journal")
        self.store, journal = open_journal(self.jdir)
        self.dist = JobDistributor(Grid(ClusterSpec.uhd_default()), SubprocessBackend(),
                                   journal=journal)
        users = UserStore()
        files = FileManager(str(self.root))
        self.jobsvc = JobService(files, self.dist)
        self.portal = PortalApp(files, users, SessionStore(), self.jobsvc)
        self.app = PortalEntry(self.portal)
        self.toolchain = self.jobsvc.registry.resolve("c")
        self.clients = []
        for i in range(N_STUDENTS):
            name = f"lab{i:02d}"
            users.add_user(name, PASSWORD)
            client = PortalClient(app=self.app, conditional=True)
            client.login(name, PASSWORD)
            self.clients.append(client)

    def close(self) -> None:
        self.dist.wait_all(60)
        self.store.close()
        remove_tree(self.jdir)
        remove_tree(self.root)


def _plan(seed: int):
    """Endless seeded stream of lab runs.

    Runs come in blocks of ``PLAN_BLOCK`` with exact parallel and
    kept-source shares, so every seed offers the same mix.
    """
    rng = np.random.default_rng(seed)
    parallel = [k < round(PARALLEL_SHARE * PLAN_BLOCK) for k in range(PLAN_BLOCK)]
    keep = [k < round(RESUBMIT_SHARE * PLAN_BLOCK) for k in range(PLAN_BLOCK)]
    while True:
        rng.shuffle(parallel)
        rng.shuffle(keep)
        for par, kept in zip(parallel, keep):
            yield {
                "student": int(rng.integers(0, N_STUDENTS)),
                "keep_source": kept,
                "kind": "parallel" if par else "sequential",
                "n_tasks": int(rng.integers(2, 5)) if par else 1,
                "args": [f"a{int(x)}"
                         for x in rng.integers(0, 1000, size=int(rng.integers(0, 4)))],
            }


def _expected(toolchain: str, version: int, run: dict) -> list[str]:
    """The stdout lines a correct run prints."""
    lines = []
    for rank in range(run["n_tasks"]):
        if toolchain == "gcc":
            line = f"v{version} rank={rank}" + "".join(f" {a}" for a in run["args"])
        else:  # the simulated toolchain replays literal output text only
            line = f"v{version} rank=%s %s"
        lines.append(f"[rank {rank}] {line}" if run["n_tasks"] > 1 else line)
    return lines


def _cpu_s() -> float:
    """CPU seconds of this process and its finished children so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _one_run(ctx, lab: _Lab, state: dict, run: dict, tracer) -> dict | None:
    """Write/compile if the source changed, submit, poll, read.

    Returns the run's wall-clock and CPU time from submit to output read.
    The job's processes are waited for before it turns terminal, so
    their CPU time is counted by then.
    """
    i = run["student"]
    client = lab.clients[i]
    unchanged = run["keep_source"] and state["version"][i] > 0
    if not unchanged:
        state["version"][i] += 1
        client.write_file("lab.c", SOURCE.replace("%VERSION%", str(state["version"][i])))
        report = client.compile("lab.c")
        if not report.get("ok"):
            ctx.fail(f"lab: compile failed: {report.get('diagnostics')}")
            return None
    version = state["version"][i]
    op = tracer.begin("op.run") if tracer is not None else None
    t0, c0 = time.perf_counter(), _cpu_s()
    data = client.submit_job("lab.c", kind=run["kind"], n_tasks=run["n_tasks"],
                             args=run["args"], timeout_s=30.0)
    job_id = data["job"]["id"]
    while client.job(job_id)["state"] not in TERMINAL:
        time.sleep(POLL_S)
    out = client.job_output(job_id)
    latency, cpu = time.perf_counter() - t0, _cpu_s() - c0
    if op is not None:
        tracer.end(op)
    good = out["state"] == "completed" and out["stdout"] == _expected(
        lab.toolchain.name, version, run)
    ctx.check(good, f"lab: job {job_id} printed {out['stdout']!r}")
    return {"lat": latency, "cpu": cpu, "op": op, "job": job_id, "unchanged": unchanged,
            "parallel": run["n_tasks"] > 1}


class _ReferenceCompile(Calibration):
    """The machine's speed for gcc: CPU seconds of compiling a fixed source.

    The lab's CPU time is mostly gcc, whose speed on a shared machine
    drifts apart from the interpreter's, so the Python kernel of
    :class:`Calibration` does not track it.  gcc is run directly, not
    through the toolchain under test, so a change there is not scaled
    away.
    """

    NOMINAL_S = 0.15
    COMPILES = 3

    def __init__(self, workdir) -> None:
        super().__init__()
        self.source = workdir / "reference.c"
        self.source.write_text('#include <stdio.h>\nint main(void) { puts("ref"); return 0; }\n')
        self.binary = workdir / "reference"

    def sample(self) -> None:
        c0 = _cpu_s()
        for _ in range(self.COMPILES):
            subprocess.run(["gcc", "-o", str(self.binary), str(self.source)], check=True)
        self.samples.append(_cpu_s() - c0)


def _measure(ctx, lab: _Lab, plan, state, seconds: float, tracer, calibration) -> dict:
    """A fixed number of runs (``RUNS_PER_S`` per budget second), so every
    run of one seed does the same work.

    Calibration samples bracket every ``CHUNK_RUNS`` runs, and those runs'
    CPU times are scaled by the mean of the two, so a machine whose speed
    drifts within the phase is matched chunk by chunk.
    """
    runs = []
    scaled = wall = 0.0
    plan = itertools.islice(plan, max(1, int(RUNS_PER_S * seconds)))
    gc.collect()
    calibration.sample()
    while chunk := list(itertools.islice(plan, CHUNK_RUNS)):
        done = []
        t0, c0 = time.perf_counter(), _cpu_s()
        for run in chunk:
            try:
                result = _one_run(ctx, lab, state, run, tracer)
            except Exception as exc:  # noqa: BLE001 - a refused request is a counted failure
                ctx.fail(f"lab: run raised {type(exc).__name__}: {exc}")
                continue
            if result is not None:
                done.append(result)
        used = _cpu_s() - c0
        wall += time.perf_counter() - t0
        calibration.sample()
        scale = 2 * calibration.NOMINAL_S / sum(calibration.samples[-2:])
        for result in done:
            result["cpu"] *= scale
        scaled += used * scale
        runs += done
    return {"runs": runs, "rate": len(runs) / wall, "per_cpu_s": len(runs) / scaled}


def run(ctx) -> dict:
    lab, setup_s = timed_setups(lambda: _Lab(ctx), _Lab.close, SETUP_REPEATS)
    try:
        plan = _plan(ctx.seed)
        state = {"version": [0] * N_STUDENTS}
        calibration = (_ReferenceCompile(ctx.workdir) if lab.toolchain.name == "gcc"
                       else Calibration())
        if not ctx.trace:
            res = _measure(ctx, lab, plan, state, ctx.seconds, None, calibration)
            _properties(ctx, lab, res)
            cpu = [r["cpu"] for r in res["runs"]]
            return {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (res["per_cpu_s"], "1/s"),
                "p50_ms": (percentile(cpu, 50) * 1e3, "ms"),
                "tail_ms": (percentile(cpu, 90) * 1e3, "ms"),
            }
        plain = _measure(ctx, lab, plan, state, ctx.seconds / 2, None, calibration)
        tracer = Tracer()
        ctx.tracer = tracer
        lab.app.tracer = tracer
        tracer.wrap(lab.toolchain, "compile", "toolchain.compile")
        times = trace_distributor(tracer, lab.dist)
        before = Before(lab.dist, lab.store)
        traced = _measure(ctx, lab, plan, state, ctx.seconds / 2, tracer, calibration)
        props = _properties(ctx, lab, traced)
        out = _layers(tracer, lab, times, traced, before)
        out["trace.overhead_ratio"] = (plain["per_cpu_s"] / traced["per_cpu_s"], "ratio")
        out["input.parallel_share"] = (props["parallel_share"], "ratio")
        out["input.unchanged_source_share"] = (props["unchanged_share"], "ratio")
        return out
    finally:
        lab.close()


def _properties(ctx, lab: _Lab, res: dict) -> dict:
    infos = res["runs"]
    n = max(1, len(infos))
    props = {
        "unchanged_share": sum(x["unchanged"] for x in infos) / n,
        "parallel_share": sum(x["parallel"] for x in infos) / n,
    }
    ctx.note(f"input: students={N_STUDENTS} runs={len(infos)} "
             f"unchanged_source_share={props['unchanged_share']:.3f} "
             f"parallel_share={props['parallel_share']:.3f} "
             f"toolchain={lab.toolchain.name}")
    lat = [r["lat"] for r in infos]
    ctx.note(f"wall clock: runs_per_s={res['rate']:.4g} p50_ms={percentile(lat, 50) * 1e3:.4g} "
             f"p90_ms={percentile(lat, 90) * 1e3:.4g}")
    return props


def _layers(tracer, lab: _Lab, times, res, before: Before) -> dict:
    """Per-layer figures; the blocking path of a run is its submit request,
    then the job's own run until done, then the final output read."""
    spans = tracer.spans
    fold = Fold(spans)
    blocking: dict[str, float] = {}
    total = 0.0
    compile_in_runs = 0.0

    def add(tree: dict) -> None:
        for layer, t in tree.items():
            blocking[layer] = blocking.get(layer, 0.0) + t

    for info in res["runs"]:
        op = info["op"]
        total += op[5] - op[4]
        requests = sorted((s for s in fold.children.get(op[0], ())
                           if s[3] == "portal.request"), key=lambda s: s[4])
        if not requests:
            continue
        submit, final = requests[0], requests[-1]
        add({k: v for k, v in fold.subtree_by_layer(submit).items() if k != "op"})
        add({k: v for k, v in fold.subtree_by_layer(final).items() if k != "op"})
        done = times.done.get(info["job"])
        if done is not None:
            blocking["backend"] = blocking.get("backend", 0.0) + max(0.0, done - submit[5])
        compile_in_runs += sum(
            s[5] - s[4] for s in _descendants(fold, submit) if s[3] == "toolchain.compile")
    out = layer_metrics(fold, blocking, total)
    out.update(portal_metrics(fold, lab.dist, lab.store, before))
    out.update({
        "toolchain.compile_ms": (mean(durations(spans, "toolchain.compile")) * 1e3, "ms"),
        "toolchain.compile_share": (compile_in_runs / total, "ratio"),
        **times.metrics(),
    })
    return out


def _descendants(fold: Fold, root: list):
    todo = list(fold.children.get(root[0], ()))
    while todo:
        span = todo.pop()
        yield span
        todo.extend(fold.children.get(span[0], ()))

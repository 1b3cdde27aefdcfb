"""Shared pieces of the benchmark: statistics, the journal, the run context.

Nothing here touches the system under test beyond its public
constructors; the workloads import what they drive themselves.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import shutil
import statistics
import threading
import time
from pathlib import Path

from repro.durability import DurabilityStore, JobJournal
from repro.toolchain.registry import ToolchainRegistry


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of an empty sample")
    return sum(values) / len(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def filesystem_of(path: Path) -> str:
    """The filesystem type holding ``path`` (longest mount-point prefix)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


class Run:
    """One benchmark invocation: seed, budget, scratch space and tallies.

    Every operation a workload attempts is counted here, and every
    failed, refused or wrong one as well, so ``failed / attempted`` is
    the run's error ratio.  ``notes`` collects the human-readable report
    lines (input properties, per-policy figures) printed before the
    result line.
    """

    def __init__(self, workdir: Path, seed: int, seconds: float, trace: bool) -> None:
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        #: the traced run's span recorder, written out at exit
        self.tracer = None
        self._dirs = 0
        self._lock = threading.Lock()  # load threads tally concurrently

    def ok(self, n: int = 1) -> None:
        with self._lock:
            self.attempted += n

    def fail(self, what: str, n: int = 1) -> None:
        """Count ``n`` attempted operations that failed or gave wrong output."""
        with self._lock:
            self.attempted += n
            self.failed += n
        self.problem(what)

    def problem(self, what: str) -> None:
        """Keep the first few failure descriptions for the report."""
        if len(self.problems) < 20:
            self.problems.append(what)

    def check(self, cond: bool, what: str) -> bool:
        if cond:
            self.ok()
        else:
            self.fail(what)
        return cond

    def note(self, line: str) -> None:
        self.notes.append(line)

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{stem}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def environment(self) -> dict:
        return {
            "c_toolchain": ToolchainRegistry().resolve("c").name,
            "journal_fs": filesystem_of(self.workdir),
            "nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
        }


class PortalEntry:
    """A portal's WSGI entry as clients reach it.

    Counts requests, conditional GETs and 304 answers, and spans each
    request as ``portal.request`` once a tracer is attached.
    """

    def __init__(self, app) -> None:
        self.app = app
        self.tracer = None
        self.requests = 0
        self.conditional = 0
        self.not_modified = 0

    def __call__(self, environ, start_response):
        self.requests += 1
        self.conditional += "HTTP_IF_NONE_MATCH" in environ

        def capture(status, headers):
            if status.startswith("304"):
                self.not_modified += 1
            return start_response(status, headers)

        if self.tracer is None:
            return self.app(environ, capture)
        span = self.tracer.begin("portal.request")
        try:
            return self.app(environ, capture)
        finally:
            self.tracer.end(span)


class _Item:
    __slots__ = ("key", "rank", "name", "total")

    def __init__(self, key: int, rank: int, name: str) -> None:
        self.key, self.rank, self.name, self.total = key, rank, name, 0


class Calibration:
    """The machine's speed while a run measures, for scaling CPU times.

    On a shared virtual machine the same Python code runs up to 1.7x
    faster or slower from one minute to the next as other tenants come
    and go, and a run's CPU seconds move with it.  A fixed calibration
    kernel (object churn, a dict index, a sort and a scan: the kind of
    work the portal and the distributor do) is timed in CPU seconds
    before and after each measured unit, with the cyclic collector off
    so the program's heap cannot change its cost.  A unit's CPU time is
    scaled by ``NOMINAL_S`` over the mean of the two samples around it,
    so it reads as on a machine where the kernel takes ``NOMINAL_S``;
    :meth:`factor` is the run-wide median, for set-up times and the
    report lines.
    """

    NOMINAL_S = 0.05

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.process_time()
            items = [_Item((i * 7919) % 10007, i, f"j{i}") for i in range(20000)]
            index = {item.name: item for item in items}
            items.sort(key=lambda item: (item.key, item.rank))
            total = 0
            for item in items:
                item.total = index[item.name].rank + total
                total += item.key & 1
            self.samples.append(time.process_time() - t0)
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """Median kernel time over nominal: above 1 on a slow machine."""
        return median(self.samples) / self.NOMINAL_S


def open_journal(directory: Path) -> tuple[DurabilityStore, JobJournal]:
    """A write-ahead journal as production runs it (``fsync="interval"``)."""
    store = DurabilityStore(directory, fsync="interval")
    return store, JobJournal(store)


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def timed_setups(build, teardown, repeats: int):
    """Build the system ``repeats`` times; keep the last, return its timings.

    Set-up is measured as a median over fresh builds so work moved into
    set-up shows as a steady number rather than one noisy sample.
    """
    times = []
    system = None
    for i in range(repeats):
        if system is not None:
            teardown(system)
        t0 = time.perf_counter()
        system = build()
        times.append(time.perf_counter() - t0)
    return system, median(times)

"""The incremental dispatch engine: equivalence with a brute-force oracle,
per-job work that stays flat as the backlog grows, the backoff heap,
policy swaps, fault rollback, coalesced dispatch, event-driven wait_all,
and the observability counters."""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro._errors import ResourceError
from repro.cluster import (
    BackfillScheduler,
    CallableBackend,
    CapacityView,
    ClusterSpec,
    FaultInjector,
    FIFOScheduler,
    Grid,
    HealthPolicy,
    Job,
    JobDistributor,
    JobKind,
    JobRequest,
    JobState,
    NodeState,
    PriorityScheduler,
    RetryPolicy,
    RunningEstimates,
    Scheduler,
    SimulatedBackend,
)
from repro.cluster.monitor import ClusterMonitor
from repro.cluster.scheduler import _merge_plan, commit_placement, place_request
from repro.desim import Simulator
from repro.durability import DurabilityStore, JobJournal, recover_distributor
from repro.spec import Reconfigurer, build_distributor, valid_spec

N_JOBS = 400


def make_workload(n=N_JOBS, seed=42):
    """Same mixed stream shape as the P2 benchmark: 70% sequential."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        parallel = rng.random() < 0.3
        n_tasks = int(rng.integers(2, 17)) if parallel else 1
        duration = float(rng.lognormal(1.0, 0.8))
        out.append(
            JobRequest(
                name=f"j{i}",
                kind=JobKind.PARALLEL if parallel else JobKind.SEQUENTIAL,
                n_tasks=n_tasks,
                sim_duration=duration,
                est_runtime_s=duration * float(rng.uniform(1.0, 1.5)),
                priority=int(rng.integers(0, 3)),
            )
        )
    return out


def assert_capacity_consistent(grid):
    """Incremental indexes must equal a from-scratch recount of the nodes."""
    for seg in grid.segments:
        assert seg.cores_free == sum(n.cores_free for n in seg.slaves)
        assert seg.memory_free_mb == sum(n.memory_free_mb for n in seg.slaves)
    assert grid.cores_free == sum(n.cores_free for n in grid.compute_nodes())
    # A fresh capacity view must read exactly what the up nodes hold.
    view, up = CapacityView(grid), grid.up_compute_nodes()
    for n in up:
        assert view.free(n) == (n.cores_free, n.memory_free_mb)
    for seg in grid.segments:
        assert view.seg_free_cores(seg) == sum(n.cores_free for n in seg.up_slaves())
    assert view.total_free_cores == sum(n.cores_free for n in up)


# -- the reference scheduler ---------------------------------------------------
class FullRebuild:
    """Free capacity snapshotted from every up node at construction — the
    pre-index reference the incremental :class:`CapacityView` replaced."""

    def __init__(self, grid):
        self.grid = grid
        self.cores, self.memory = {}, {}
        self._seg_free = {s.name: 0 for s in grid.segments}
        self.total_free_cores = 0
        self.probes = 0
        for n in grid.up_compute_nodes():
            self.cores[n.name] = n.cores_free
            self.memory[n.name] = n.memory_free_mb
            self._seg_free[n.segment] += n.cores_free
            self.total_free_cores += n.cores_free

    def free(self, node):
        return self.cores.get(node.name, 0), self.memory.get(node.name, 0)

    def seg_free_cores(self, seg):
        return self._seg_free.get(seg.name, 0)

    def take(self, node_name, cores, memory_mb):
        self.cores[node_name] -= cores
        self.memory[node_name] -= memory_mb
        self._seg_free[self.grid.node(node_name).segment] -= cores
        self.total_free_cores -= cores


def oracle_select(policy, queued, grid, now, running):
    """Brute-force picks: scan every queued job, drop the ones backing off,
    sort by effective priority each round, place against a full rebuild.
    Returns ``[(job_id, placement), ...]``."""
    shadow = FullRebuild(grid)
    queue = sorted((j for j in queued if j.not_before <= now), key=lambda j: j.seq)
    picks = []

    def start(job):
        plan = place_request(grid, job.request, shadow)
        if plan is None:
            return False
        commit_placement(shadow, plan, job.request)
        picks.append((job.id, _merge_plan(plan)))
        return True

    if policy.name == "fifo":
        for job in queue:
            if not start(job):
                break
    elif policy.name == "priority":
        ordered = sorted(
            enumerate(queue), key=lambda p: (-policy.effective_priority(p[1], now), p[0])
        )
        for _, job in ordered:
            if shadow.total_free_cores <= 0:
                break
            start(job)
    else:  # backfill
        while queue and start(queue[0]):
            queue.pop(0)
        if not queue:
            return picks
        head_need = queue[0].request.total_cores
        reservation = BackfillScheduler._reserved_start(
            head_need, shadow.total_free_cores, now, sorted(running)
        )
        free_at_reservation = 0
        if reservation is not None:
            drained = sum(c for end, c in running if end <= reservation)
            free_at_reservation = shadow.total_free_cores + drained
        for job in queue[1:]:
            if shadow.total_free_cores <= 0:
                break
            est = job.request.est_runtime_s
            if est is None:
                continue
            harmless = (
                reservation is not None
                and job.request.total_cores <= free_at_reservation - head_need
            )
            if harmless or (reservation is not None and now + est <= reservation):
                start(job)
    return picks


class DiffingScheduler(Scheduler):
    """Runs every round twice — the brute-force oracle and the policy over
    the live indexed queue — and asserts identical pick sequences."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.rounds_diffed = 0
        #: rounds in which some queued job was still backing off
        self.backoff_rounds = 0

    def queue_key(self, job):
        return self.inner.queue_key(job)

    def select(self, queue, grid, now=0.0, running=(), view=None):
        queued = queue.snapshot()
        expected = oracle_select(self.inner, queued, grid, now, list(running))
        picks = self.inner.select(queue, grid, now=now, running=running, view=view)
        assert [(j.id, a.placement) for j, a in picks] == expected, (
            f"pick divergence under {self.name} at t={now}"
        )
        self.rounds_diffed += 1
        self.backoff_rounds += any(j.not_before > now for j in queued)
        return picks


#: submission instants of the four waves of the stream: no two are 2 or 4 s
#: apart, so with integer priorities and aging 0.5 no two jobs of different
#: waves tie on effective priority (a tie would be broken by rounding).
WAVES = (0.0, 1.3, 2.9, 4.7)

POLICIES = {
    "FIFOScheduler": FIFOScheduler,
    "PriorityScheduler-aging0": PriorityScheduler,
    "PriorityScheduler-aging0.5": lambda: PriorityScheduler(aging_rate=0.5),
    "BackfillScheduler": BackfillScheduler,
}


def run_stream(scheduler, retries=False):
    """The seeded 400-job stream in four waves; with ``retries`` every fifth
    job times out each attempt and retries with backoff until it runs out."""
    sim = Simulator()
    grid = Grid(ClusterSpec.uhd_default())
    # Health tracking off: nodes benched for repeated timeouts would still
    # hide their cores when the run ends (no round runs once the queue is
    # empty), and the end-of-run capacity check wants every core back.
    dist = JobDistributor(grid, SimulatedBackend(sim), scheduler, now_fn=lambda: sim.now,
                          track_health=False)
    requests = make_workload()
    if retries:
        policy = RetryPolicy(max_attempts=3, backoff_base_s=1.5)
        requests = [
            dataclasses.replace(r, timeout_s=r.sim_duration / 2, retry=policy) if i % 5 == 0
            else r
            for i, r in enumerate(requests)
        ]

    def feed(sim):
        for k, at in enumerate(WAVES):
            yield sim.timeout(at - sim.now)
            for request in requests[k::len(WAVES)]:
                dist.submit(request)

    sim.process(feed(sim))
    sim.run()
    return dist


class TestPickEquivalence:
    @pytest.mark.parametrize("retries", [False, True], ids=["stream", "retries"])
    @pytest.mark.parametrize("policy", list(POLICIES.values()), ids=list(POLICIES))
    def test_incremental_index_matches_full_rebuild(self, policy, retries):
        diffing = DiffingScheduler(policy())
        dist = run_stream(diffing, retries)
        assert diffing.rounds_diffed > N_JOBS  # every round was cross-checked
        by_state = dist.monitor.summary()["by_state"]
        if retries:
            assert by_state == {"completed": N_JOBS - N_JOBS // 5, "timeout": N_JOBS // 5}
            assert dist.stats()["faults"]["retries"] == 2 * (N_JOBS // 5)
            assert diffing.backoff_rounds > 0
        else:
            assert by_state == {"completed": N_JOBS}
        assert len(dist.queue) == 0
        assert_capacity_consistent(dist.grid)
        assert dist.grid.cores_free == dist.grid.cores_total


class TestDispatchScaling:
    @pytest.mark.parametrize(
        "scheduler_cls", [FIFOScheduler, PriorityScheduler, BackfillScheduler]
    )
    def test_examined_per_job_flat_from_100_to_1600(self, scheduler_cls):
        """Queue entries a policy visits per job must not grow with the
        backlog: a round that rescans the queue makes this ratio ~N."""

        def examined_per_job(n):
            sim = Simulator()
            dist = JobDistributor(Grid(ClusterSpec.uhd_default()), SimulatedBackend(sim),
                                  scheduler_cls(), now_fn=lambda: sim.now)
            for request in make_workload(n):
                dist.submit(request)
            sim.run()
            assert dist.monitor.summary()["by_state"] == {"completed": n}
            return dist.stats()["dispatch"]["jobs_examined"] / n

        small, large = examined_per_job(100), examined_per_job(1600)
        assert large <= 4 * small, f"{scheduler_cls.name}: {small:.2f} -> {large:.2f} per job"


class TestBackoffHeap:
    """A job serving its retry backoff waits in the queue's heap: it never
    dispatches before ``not_before``, still counts as queued, and can be
    cancelled, timed out or recovered from there."""

    RETRY = RetryPolicy(max_attempts=2, backoff_base_s=10.0, jitter=0.0)

    def backing_off(self, dist, sim, **request_kw):
        """Submit a job whose attempts always time out at 1 s; return it at
        t=2, backing off until t=11."""
        job = dist.submit(JobRequest(name="flaky", sim_duration=5.0, timeout_s=1.0,
                                     retry=self.RETRY, **request_kw))
        sim.run(until=2.0)
        self.assert_backing_off(dist, job, until=11.0)
        return job

    @staticmethod
    def assert_backing_off(dist, job, until):
        assert job.state is JobState.QUEUED and job.not_before == until
        assert len(dist.queue) == 1 and dist.stats()["queued"] == 1
        assert dist.queue.head() is None  # nothing is ready to walk

    @staticmethod
    def world(sim, journal=None):
        grid = Grid(ClusterSpec.small(segments=1, slaves=2, cores=2))
        return JobDistributor(grid, SimulatedBackend(sim), now_fn=lambda: sim.now,
                              track_health=False, journal=journal)

    def test_dispatches_once_mature_never_before(self, sim):
        dist = self.world(sim)
        job = self.backing_off(dist, sim)
        sim.run(until=10.9)
        self.assert_backing_off(dist, job, until=11.0)
        assert len(job.attempts) == 1
        sim.run()
        assert [a.started_at for a in job.attempts] == [0.0, 11.0]
        assert job.state is JobState.TIMEOUT and len(dist.queue) == 0

    def test_cancel_while_backing_off(self, sim):
        dist = self.world(sim)
        job = self.backing_off(dist, sim)
        assert dist.cancel(job.id)
        assert job.state is JobState.CANCELLED and len(dist.queue) == 0
        sim.run()  # the armed wake-up fires and finds nothing
        assert job.state is JobState.CANCELLED and len(job.attempts) == 1

    def test_wallclock_timeout_while_backing_off(self, sim):
        dist = self.world(sim)
        job = self.backing_off(dist, sim, wallclock_timeout_s=4.0)
        sim.run()
        assert job.state is JobState.TIMEOUT and job.error == "wallclock timeout"
        assert job.finished_at == 4.0 and len(job.attempts) == 1
        assert len(dist.queue) == 0

    def test_recovered_job_keeps_its_backoff(self, tmp_path):
        sim = Simulator()
        store = DurabilityStore(tmp_path, fsync="never")
        job = self.backing_off(self.world(sim, JobJournal(store)), sim)
        store.close()  # crash while the job backs off
        sim = Simulator()  # the reboot's clock starts over at t=0
        store = DurabilityStore(tmp_path, fsync="never")
        try:
            dist, report = recover_distributor(
                store, Grid(ClusterSpec.small(segments=1, slaves=2, cores=2)),
                SimulatedBackend(sim), now_fn=lambda: sim.now, track_health=False,
            )
            assert report.requeued_queued == 1
            job = dist.jobs[job.id]
            self.assert_backing_off(dist, job, until=11.0)
            sim.run(until=10.9)
            self.assert_backing_off(dist, job, until=11.0)
            sim.run()
            assert [a.started_at for a in job.attempts] == [0.0, 11.0]
            assert job.state is JobState.TIMEOUT and len(dist.queue) == 0
        finally:
            store.close()

    def test_superseded_wakeups_do_not_multiply(self, sim):
        """Staggered run deadlines and backoffs arm many wake-ups; one
        that an earlier arm superseded must not re-arm a duplicate each
        time it fires (that grew without bound and stalled virtual time)."""
        dist = self.world(sim)
        for i in range(12):
            dist.submit(JobRequest(name=f"t{i}", sim_duration=5.0, timeout_s=1.0 + i / 10,
                                   retry=RetryPolicy(max_attempts=3, backoff_base_s=1.5)))
        sim.run(max_events=20_000)
        assert all(j.state is JobState.TIMEOUT for j in dist.jobs.values())
        assert dist.stats()["dispatch"]["rounds"] < 500


class TestProbationWakeup:
    # (0.2 + 0.5) - 0.2 < 0.5 in floating point: the wake-up round at the
    # end of probation must still find the nodes due
    @pytest.mark.parametrize("timeout_s, probation_s", [(1.0, 30.0), (0.2, 0.5)])
    def test_jobs_queued_behind_a_fully_benched_grid_run_after_probation(
        self, sim, timeout_s, probation_s
    ):
        """Timeouts bench every node; the queued jobs wait until the end of
        probation, when a wake-up round lets the nodes rejoin."""
        grid = Grid(ClusterSpec.small(segments=1, slaves=2, cores=2))
        policy = HealthPolicy(suspect_after=1, probation_s=probation_s)
        dist = JobDistributor(grid, SimulatedBackend(sim), now_fn=lambda: sim.now,
                              health_policy=policy)
        bad = [dist.submit(JobRequest(name=f"hang{i}", sim_duration=5.0, timeout_s=timeout_s))
               for i in range(4)]
        good = [dist.submit(JobRequest(name=f"ok{i}", sim_duration=2.0)) for i in range(3)]
        sim.run(until=timeout_s + 0.1)
        assert all(n.state is NodeState.SUSPECT for n in grid.compute_nodes())
        assert len(dist.queue) == 3 and grid.cores_free == 0
        sim.run()
        assert all(j.state is JobState.TIMEOUT for j in bad)
        assert all(j.state is JobState.COMPLETED for j in good)
        assert {j.started_at for j in good} == {timeout_s + probation_s}
        assert dist.stats()["faults"]["nodes_rejoined"] == 2
        assert grid.cores_free == grid.cores_total


class TestPolicySwap:
    def test_spec_apply_fifo_to_priority_rekeys_the_queue(self, monkeypatch):
        sim = Simulator()
        dist = build_distributor(valid_spec(), SimulatedBackend(sim), now_fn=lambda: sim.now)
        assert dist.scheduler.name == "fifo"
        for i in range(dist.grid.cores_total):
            dist.submit(JobRequest(name=f"blocker{i}", sim_duration=10.0))
        queued = [
            dist.submit(JobRequest(
                name=f"q{i}", kind=JobKind.PARALLEL if i % 3 else JobKind.SEQUENTIAL,
                n_tasks=1 + i % 3, sim_duration=1.0, priority=(7 * i) % 5,
            ))
            for i in range(60)
        ]
        assert len(dist.queue) == 60

        rc = Reconfigurer(dist)
        desired = rc.describe()
        desired["scheduler"] = {"policy": "priority"}
        rc.apply(desired)
        policy = dist.scheduler
        assert policy.name == "priority"
        rank = {j.id: k for k, j in enumerate(
            sorted(queued, key=lambda j: (-j.request.priority, j.seq)))}
        assert [rank[j.id] for j in dist.queue.walk()] == list(range(60))

        rounds = []
        select = policy.select

        def checked(queue, grid, now=0.0, running=(), view=None):
            expected = oracle_select(policy, queue.snapshot(), grid, now, list(running))
            picks = select(queue, grid, now=now, running=running, view=view)
            rounds.append([(j.id, a.placement) for j, a in picks])
            assert rounds[-1] == expected, f"pick divergence at t={now}"
            return picks

        monkeypatch.setattr(policy, "select", checked)
        sim.run()
        picked = [[rank[job_id] for job_id, _ in picks] for picks in rounds if picks]
        assert picked and all(ranks == sorted(ranks) for ranks in picked)
        assert all(j.state is JobState.COMPLETED for j in queued)


class TestReserveRollback:
    def test_node_failure_mid_round_keeps_indexes_consistent(self, sim):
        grid = Grid(ClusterSpec.small(segments=1, slaves=2, cores=2))
        dist = JobDistributor(grid, SimulatedBackend(sim), now_fn=lambda: sim.now)
        # Second node's allocate blows up as if it died between select and
        # reserve: the first node's allocation must be rolled back.
        victim = grid.node("seg-0-n01")
        real_allocate = victim.allocate

        def dying_allocate(*a, **kw):
            raise ResourceError("node died mid-round")

        victim.allocate = dying_allocate
        job = dist.submit(
            JobRequest(name="wide", kind=JobKind.PARALLEL, n_tasks=2,
                       cores_per_task=2, sim_duration=1.0)
        )
        # Reserve failed: job was re-queued, nothing is held anywhere.
        assert job.state is JobState.QUEUED
        assert grid.cores_free == grid.cores_total
        assert_capacity_consistent(grid)
        # Node recovers: the queued job dispatches and completes normally.
        victim.allocate = real_allocate
        dist.dispatch()
        sim.run()
        assert job.state is JobState.COMPLETED
        assert_capacity_consistent(grid)

    def test_fault_injection_mid_workload_keeps_indexes_consistent(self):
        sim = Simulator()
        grid = Grid(ClusterSpec.small(segments=2, slaves=4, cores=2))
        dist = JobDistributor(grid, SimulatedBackend(sim), now_fn=lambda: sim.now)
        injector = FaultInjector(dist, seed=3)
        for request in make_workload(n=60, seed=9):
            if request.n_tasks <= 8:  # fits the small grid
                dist.submit(request)

        def chaos(sim):
            yield sim.timeout(2.0)
            injector.kill_random_node()
            assert_capacity_consistent(dist.grid)
            yield sim.timeout(2.0)
            injector.revive_all()
            assert_capacity_consistent(dist.grid)

        sim.process(chaos(sim))
        sim.run()
        assert all(j.terminal for j in dist.jobs.values())
        assert_capacity_consistent(grid)
        assert grid.cores_free == grid.cores_total


class TestCoalescedDispatch:
    def test_submit_array_dispatches_once(self, sim, small_grid):
        dist = JobDistributor(small_grid, SimulatedBackend(sim), now_fn=lambda: sim.now)
        before = dist.stats()["dispatch"]
        jobs = dist.submit_array(JobRequest(name="sweep", sim_duration=1.0), count=8)
        after = dist.stats()["dispatch"]
        assert after["requests"] - before["requests"] == 1
        assert after["rounds"] - before["rounds"] == 1
        sim.run()
        assert all(j.state is JobState.COMPLETED for j in jobs)

    def test_submit_array_docstring_documents_batching(self):
        assert "batch" in JobDistributor.submit_array.__doc__.lower()

    def test_rounds_amortised_o1_per_job(self):
        sim = Simulator()
        grid = Grid(ClusterSpec.uhd_default())
        dist = JobDistributor(grid, SimulatedBackend(sim), BackfillScheduler(),
                              now_fn=lambda: sim.now)
        n = 200
        for request in make_workload(n=n, seed=5):
            dist.submit(request)
        sim.run()
        d = dist.stats()["dispatch"]
        # ~1 round per submit + ~1 per completion; coalescing keeps it O(1).
        assert d["rounds"] <= 4 * n
        assert d["jobs_started"] == n

    def test_dispatch_counters_exposed(self, sim, small_grid):
        dist = JobDistributor(small_grid, SimulatedBackend(sim), now_fn=lambda: sim.now)
        dist.submit(JobRequest(name="j", sim_duration=1.0))
        sim.run()
        d = dist.stats()["dispatch"]
        for key in ("requests", "coalesced", "rounds", "jobs_examined",
                    "placements_tried", "jobs_started"):
            assert key in d
        assert d["rounds"] >= 1
        assert d["jobs_started"] == 1
        assert d["placements_tried"] >= 1


class TestRunningEstimates:
    def test_distributor_keeps_estimates_sorted(self, sim):
        grid = Grid(ClusterSpec.small(segments=1, slaves=4, cores=2))
        dist = JobDistributor(grid, SimulatedBackend(sim), now_fn=lambda: sim.now)
        for est in (9.0, 2.0, 7.0, 4.0):
            dist.submit(JobRequest(name=f"e{est}", sim_duration=est, est_runtime_s=est))
        running = dist._running_estimates()
        assert isinstance(running, RunningEstimates)
        assert running.presorted
        assert list(running) == sorted(running)
        assert len(running) == 4
        sim.run()
        assert dist._running_estimates() == []

    def test_backfill_accepts_presorted_without_resorting(self):
        unsorted = [(100.0, 4), (50.0, 2), (75.0, 2)]
        presorted = RunningEstimates(sorted(unsorted))
        a = BackfillScheduler._reserved_start(6, 2, 0.0, unsorted)
        b = BackfillScheduler._reserved_start(6, 2, 0.0, presorted)
        assert a == b == 75.0

    def test_estimate_less_jobs_invisible_to_backfill(self):
        grid = Grid(ClusterSpec.small(segments=1, slaves=1, cores=1))
        dist = JobDistributor(grid, CallableBackend())
        release = threading.Event()
        try:
            # Neither est_runtime_s nor sim_duration → no end-time entry.
            job = dist.submit(JobRequest(name="n", callable=lambda j: release.wait(10)))
            assert job.state is JobState.RUNNING
            assert len(dist._run_ends) == 0
        finally:
            release.set()
            assert dist.wait_all(10)


class TestWaitAllWakeup:
    def test_wait_all_is_event_driven_not_polled(self, small_grid, monkeypatch):
        dist = JobDistributor(small_grid, CallableBackend())
        release = threading.Event()
        job = dist.submit(JobRequest(name="gate", callable=lambda j: release.wait(10)))

        def no_sleep(_secs):
            raise AssertionError("wait_all must not poll with time.sleep")

        monkeypatch.setattr(time, "sleep", no_sleep)
        threading.Timer(0.05, release.set).start()
        t0 = time.monotonic()
        assert dist.wait_all(10)
        woke_after = time.monotonic() - t0
        assert job.state is JobState.COMPLETED
        assert woke_after < 5.0  # woke on the completion signal, not the timeout

    def test_wait_all_times_out_when_busy(self, small_grid):
        dist = JobDistributor(small_grid, CallableBackend())
        release = threading.Event()
        try:
            dist.submit(JobRequest(name="stuck", callable=lambda j: release.wait(30)))
            assert not dist.wait_all(0.2)
        finally:
            release.set()
            assert dist.wait_all(10)


class TestQueueOrdering:
    def test_requeued_job_regains_submission_position(self):
        from repro.cluster import JobQueue

        q = JobQueue()
        jobs = []
        for i in range(3):
            j = Job(JobRequest(name=f"q{i}", sim_duration=1.0))
            j.transition(JobState.QUEUED)
            q.push(j)
            jobs.append(j)
        middle = jobs[1]
        assert q.remove(middle)
        q.push(middle)  # e.g. after a reserve rollback
        assert [j.request.name for j in q.snapshot()] == ["q0", "q1", "q2"]


class TestMonitorRingBuffer:
    def test_default_cap_is_bounded(self):
        grid = Grid(ClusterSpec.small())
        monitor = ClusterMonitor()
        assert monitor.max_samples == 4096
        for t in range(5000):
            monitor.sample(grid, t=float(t))
        samples = monitor.samples
        assert len(samples) == 4096
        assert samples[0].t == float(5000 - 4096)  # oldest evicted
        assert samples[-1].t == 4999.0

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            ClusterMonitor(max_samples=0)

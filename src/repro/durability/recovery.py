"""Recovery-on-boot: rebuild a distributor from its journal directory.

:func:`recover_distributor` is the boot path a restarted portal calls
instead of constructing a bare :class:`JobDistributor`:

1. read the durable truth — snapshot + journal records
   (:meth:`DurabilityStore.recover`, torn-tail tolerant);
2. fold it into per-job wire state (:func:`repro.durability.joblog.replay`);
3. restore every job object (terminal jobs keep their full attempt
   lineage; the id sequence advances past every restored ``seq`` so new
   submissions can never collide);
4. **reconcile** non-terminal jobs against live node reports:

   * an attempt in flight on nodes that are all in ``live_nodes`` is
     *resumed* — its placement is re-reserved and the backend relaunches
     it under the same attempt epoch (the work restarts; at-least-once);
   * an attempt on any dead/unknown node is retired as ``node_lost`` and
     requeued through the PR 3 retry path — same budget accounting, same
     backoff, same lineage records — or sealed FAILED when the budget
     (or a wall-clock deadline) says no;
   * a journaled-but-undecided attempt outcome (the crash landed between
     the attempt record and its requeue/seal) is re-decided: a journaled
     ``completed`` seals COMPLETED without re-running — this is what
     makes replay idempotent and double-completion impossible;
   * queued jobs re-enter the queue at their submission-order position
     (backoff ``not_before`` preserved), wall-clock deadlines re-arm.

Every action recovery takes is itself journaled through the *new*
journal, so a crash during recovery replays to the same state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.cluster.distributor import JobDistributor
from repro.cluster.job import Job, JobState
from repro.durability.joblog import JobJournal, replay
from repro.durability.store import DurabilityStore

__all__ = ["RecoveryReport", "recover_distributor"]


@dataclass
class RecoveryReport:
    """What recovery found and did — exposed over ``cluster.durability``."""

    snapshot_lsn: Optional[int] = None
    records_replayed: int = 0
    torn_tail: bool = False
    jobs_restored: int = 0
    terminal_restored: int = 0
    resumed_in_flight: int = 0
    requeued_in_flight: int = 0
    requeued_queued: int = 0
    sealed_completed: int = 0
    sealed_no_budget: int = 0
    sealed_unrecoverable: int = 0
    duration_s: float = 0.0
    segments: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "snapshot_lsn": self.snapshot_lsn,
            "records_replayed": self.records_replayed,
            "torn_tail": self.torn_tail,
            "jobs_restored": self.jobs_restored,
            "terminal_restored": self.terminal_restored,
            "resumed_in_flight": self.resumed_in_flight,
            "requeued_in_flight": self.requeued_in_flight,
            "requeued_queued": self.requeued_queued,
            "sealed_completed": self.sealed_completed,
            "sealed_no_budget": self.sealed_no_budget,
            "sealed_unrecoverable": self.sealed_unrecoverable,
            "duration_s": self.duration_s,
            "segments": list(self.segments),
        }


def _in_flight(job: Job) -> bool:
    """Attempt open at crash time: epoch advanced past the journaled lineage."""
    last = job.attempts[-1].no if job.attempts else 0
    return job.attempt_epoch > last


def _seal_as(dist: JobDistributor, job: Job, state: JobState, error: str | None) -> None:
    """Seal a restored job through the distributor's normal plumbing (lock held)."""
    if error is not None:
        job.error = error
    job.transition(state)
    job.stdout.close()
    job.stderr.close()
    dist._seal(job)


def _retire_lost_attempt(dist: JobDistributor, job: Job, error: str) -> None:
    """Journal the crash-lost attempt as ``node_lost`` lineage (lock held)."""
    from repro.cluster.job import JobAttempt

    attempt = JobAttempt(
        no=job.attempt_epoch,
        placement=dict(job.placement),
        started_at=job.started_at,
        finished_at=dist.now_fn(),
        outcome="node_lost",
        error=error,
    )
    job.attempts.append(attempt)
    job.placement = {}
    if dist.journal is not None:
        dist.journal.record_attempt(job, attempt)


def _resume(dist: JobDistributor, job: Job) -> bool:
    """Re-adopt an attempt whose nodes all survived: re-reserve + relaunch.

    The epoch is *not* bumped — this is the same attempt restarting, so
    its eventual completion applies exactly once.  Returns success.
    """
    reserved: list[str] = []
    try:
        for node_name, cores in job.placement.items():
            dist.grid.node(node_name).allocate(
                job.id,
                cores,
                memory_mb=job.request.memory_mb_per_task
                * (cores // job.request.cores_per_task),
            )
            reserved.append(node_name)
    except Exception:
        for node_name in reserved:
            dist.grid.node(node_name).free(job.id)
        return False
    dist._running[job.id] = job
    handle = dist._backend_for(job).launch(job)
    dist._handles[job.id] = handle
    handle.on_done(lambda j, h=handle: dist._attempt_done(j, h))
    return True


def recover_distributor(
    store: DurabilityStore,
    grid,
    backend,
    *,
    live_nodes: Optional[Iterable[str]] = None,
    snapshot_every: int = JobJournal.SNAPSHOT_EVERY,
    **distributor_kwargs,
) -> tuple[JobDistributor, RecoveryReport]:
    """Boot a :class:`JobDistributor` from ``store`` and reconcile it.

    ``live_nodes`` is the set of node names whose reports survived the
    restart (default: none — the usual full-process crash).  All other
    constructor keywords (scheduler, retry, now_fn, ...) pass through to
    :class:`JobDistributor`.
    """
    t0 = time.perf_counter()
    report = RecoveryReport()
    snapshot_state, records, info = store.recover()
    report.snapshot_lsn = info["snapshot_lsn"]
    report.records_replayed = info["records_replayed"]
    report.torn_tail = info["torn_tail"]
    report.segments = info["segments"]
    state = replay(snapshot_state, records)

    journal = JobJournal(store, snapshot_every=snapshot_every)
    dist = JobDistributor(grid, backend, journal=journal, **distributor_kwargs)
    live = frozenset(live_nodes or ())

    with dist._lock:
        now = dist.now_fn()
        for wire in sorted(state.values(), key=lambda w: w["seq"]):
            job = Job.restore(wire)
            dist.jobs[job.id] = job
            report.jobs_restored += 1
            if job.terminal:
                dist.monitor.record_job(job)
                report.terminal_restored += 1
                continue
            job.retry_gate = dist._retry_gate
            wall = job.request.wallclock_timeout_s
            if wall is not None and job.submitted_at is not None:
                dist._push_deadline(job.submitted_at + wall, "wall", job.id, -1)
            if "_unrecoverable" in wire.get("request", {}):
                # a live callable died with the old process; its lineage
                # survives but the work cannot be relaunched.
                _seal_as(dist, job, JobState.FAILED,
                         "callable lost in restart (not journalable)")
                report.sealed_unrecoverable += 1
                continue
            if job.state is JobState.RUNNING:
                if _in_flight(job):
                    nodes = set(job.placement)
                    if nodes and nodes <= live and _resume(dist, job):
                        report.resumed_in_flight += 1
                        continue
                    _retire_lost_attempt(dist, job, "lost in distributor crash")
                    outcome = "node_lost"
                else:
                    # attempt outcome journaled, next step was not.
                    outcome = job.attempts[-1].outcome
                if outcome == "completed":
                    job.exit_code = job.attempts[-1].exit_code
                    _seal_as(dist, job, JobState.COMPLETED, None)
                    report.sealed_completed += 1
                elif outcome == "cancelled":
                    _seal_as(dist, job, JobState.CANCELLED, job.attempts[-1].error)
                else:
                    failure_class = "timeout" if outcome == "timeout" else outcome
                    if failure_class not in ("timeout", "node_lost"):
                        failure_class = "failed"
                    if dist._should_retry(job, failure_class, now):
                        job.transition(JobState.RETRYING)
                        dist._requeue(job, failure_class)
                        report.requeued_in_flight += 1
                    else:
                        final = (
                            JobState.TIMEOUT
                            if failure_class == "timeout"
                            else JobState.FAILED
                        )
                        _seal_as(dist, job, final,
                                 job.attempts[-1].error or "no retry budget after crash")
                        report.sealed_no_budget += 1
            else:  # queued (possibly in backoff)
                dist.queue.push(job, now)
                if job.not_before > now:
                    dist._arm_timer(job.not_before)
                report.requeued_queued += 1
        dist._dirty = True
    dist.dispatch()
    report.duration_s = time.perf_counter() - t0
    if journal.telemetry is not None:
        journal.telemetry.recovery_done(report)
    dist.last_recovery = report
    return dist, report

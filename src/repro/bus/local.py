"""The cluster port, served in process by one distributor.

The portal reaches the cluster only through a narrow method set — the
*cluster port*: ``control_state``/``status``; ``submit``, ``describe``,
``list_jobs``, ``output_since``, ``output_fingerprint``, ``send_input``,
``cancel``; ``fleet_status``/``fleet_log``; ``spec_describe``,
``spec_validate``, ``spec_reconfigure``.  :class:`LocalCluster` answers
it directly; :class:`~repro.bus.proxy.ClusterProxy` answers the same
calls over the bus, where
:class:`~repro.bus.service.ClusterBackendService` hands each one to a
:class:`LocalCluster`.  Every reply is JSON-ready, so both sides return
the same values.

Ownership rules live here and only here: students see and control only
their own jobs; callers holding ``view_all_jobs`` (instructors, admins)
pass ``view_all=True`` and see everything.
"""

from __future__ import annotations

from repro._errors import AuthorizationError, JobError, SpecError
from repro.cluster.distributor import JobDistributor
from repro.cluster.job import Job, JobRequest
from repro.spec import Reconfigurer, validate as validate_spec

__all__ = ["LocalCluster"]


class LocalCluster:
    """The cluster port over one in-process :class:`JobDistributor`.

    ``admission`` and ``jobsvc`` let a spec reconfigure retune the
    portal's admission controller and toolchain registry as well.
    """

    def __init__(self, distributor: JobDistributor, admission=None, jobsvc=None) -> None:
        self.distributor = distributor
        self.reconfigurer = Reconfigurer(distributor, admission=admission, jobsvc=jobsvc)

    def job_for(self, owner: str, job_id: str, view_all: bool = False) -> Job:
        """The job ``owner`` may see; the one ownership check."""
        job = self.distributor.job(job_id)
        if job.request.owner != owner and not view_all:
            raise AuthorizationError(f"job {job_id} belongs to {job.request.owner!r}")
        return job

    # -- cluster-wide ---------------------------------------------------------
    def control_state(self) -> tuple[int, int]:
        """The (version, cores_free) cache-freshness fingerprint."""
        dist = self.distributor
        return dist.version, dist.grid.cores_free

    def status(self) -> dict:
        return self.distributor.stats()

    def fleet_status(self) -> dict:
        """Elastic-fleet snapshot (``{"enabled": False}`` when unmanaged)."""
        fleet = self.distributor.fleet
        return {"enabled": False} if fleet is None else fleet.snapshot()

    def fleet_log(self) -> list[dict]:
        """The fleet manager's bounded scaling-decision log."""
        fleet = self.distributor.fleet
        return [] if fleet is None else fleet.decision_log()

    # -- declarative spec ------------------------------------------------------
    def spec_describe(self) -> dict:
        """The live deployment as a spec document."""
        return self.reconfigurer.describe()

    def spec_validate(self, spec) -> dict:
        """Collect-all validation report for ``spec`` (never raises)."""
        return validate_spec(spec, source="request").as_dict()

    def spec_reconfigure(self, spec: dict, apply: bool = False, manage: bool = False) -> dict:
        """Plan (default) or apply ``spec`` to the live cluster.

        ``manage`` asserts the caller's ``manage_cluster`` capability;
        raises :class:`SpecError` for an invalid document or a plan that
        would strand live jobs.
        """
        if not manage:
            raise AuthorizationError("cluster.spec.reconfigure needs manage_cluster")
        if not isinstance(spec, dict):
            raise SpecError("reconfigure needs a spec object")
        if not apply:
            return {"applied": False, "plan": self.reconfigurer.plan(spec).as_dict()}
        return {"applied": True, **self.reconfigurer.apply(spec)}

    # -- jobs -----------------------------------------------------------------
    def submit(self, request: JobRequest) -> dict:
        """Submit; returns the new job's ``describe()``."""
        if not request.owner:
            raise JobError("submissions through the cluster port must carry an owner")
        return self.distributor.submit(request).describe()

    def describe(self, owner: str, job_id: str, view_all: bool = False) -> dict:
        return self.job_for(owner, job_id, view_all).describe()

    def list_jobs(self, owner: str, view_all: bool = False) -> list[dict]:
        """``owner``'s jobs (every job with ``view_all``), oldest first."""
        jobs = self.distributor.jobs.values()
        if not view_all:
            jobs = [j for j in jobs if j.request.owner == owner]
        return [j.describe() for j in jobs]

    def output_since(
        self, owner: str, job_id: str, since: int = 0, view_all: bool = False
    ) -> dict:
        return self.job_for(owner, job_id, view_all).output_since(since)

    def output_fingerprint(self, owner: str, job_id: str, view_all: bool = False) -> tuple:
        return self.job_for(owner, job_id, view_all).output_fingerprint()

    def send_input(self, owner: str, job_id: str, text: str, view_all: bool = False) -> None:
        """Feed stdin to an interactive job."""
        job = self.job_for(owner, job_id, view_all)
        if job.stdin.closed:
            raise JobError(f"job {job_id} does not accept input (not interactive or finished)")
        job.stdin.write(text)

    def cancel(self, owner: str, job_id: str, view_all: bool = False) -> bool:
        return self.distributor.cancel(self.job_for(owner, job_id, view_all).id)

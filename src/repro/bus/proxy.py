"""The cluster port over the bus: the front-end's view of the cluster.

One :class:`ClusterProxy` per front-end worker.  It has the method set
of :class:`~repro.bus.local.LocalCluster`, and every method is one RPC
that :class:`~repro.bus.service.ClusterBackendService` hands to a
``LocalCluster``.  The proxy also maps remote error types back onto the
local exception classes the portal's HTTP error table already
understands, so one :class:`~repro.portal.app.PortalApp` serves either.
"""

from __future__ import annotations

from repro._errors import (
    AuthorizationError,
    BusError,
    JobError,
    RpcRemoteError,
    SchedulingError,
    SpecError,
)
from repro.bus.core import MessageBus
from repro.bus.rpc import RpcClient
from repro.bus.service import DEFAULT_SERVICE_QUEUE
from repro.cluster.job import JobRequest
from repro.spec.model import Finding

__all__ = ["ClusterProxy"]

#: remote class name → local class to re-raise (defaults to BusError).
_REMOTE_ERRORS = {
    "JobError": JobError,
    "AuthorizationError": AuthorizationError,
    "SchedulingError": SchedulingError,
    "SpecError": SpecError,
}


class ClusterProxy:
    """The cluster port as client stub of :class:`~repro.bus.service.ClusterBackendService`."""

    def __init__(
        self,
        bus: MessageBus,
        service_queue: str = DEFAULT_SERVICE_QUEUE,
        client_id: str | None = None,
        timeout_s: float = 10.0,
    ) -> None:
        self.rpc = RpcClient(bus, service_queue, client_id)
        self.timeout_s = timeout_s

    def _call(self, method: str, **params):
        try:
            return self.rpc.call(method, params, timeout=self.timeout_s)
        except RpcRemoteError as exc:
            local = _REMOTE_ERRORS.get(exc.remote_type)
            if local is SpecError:
                findings = [Finding(f["path"], f["rule"], f["message"]) for f in exc.findings]
                raise SpecError(str(exc), findings=findings) from None
            if local is not None:
                raise local(str(exc)) from None
            raise

    # -- cluster-wide ---------------------------------------------------------
    def control_state(self) -> tuple[int, int]:
        """The (version, cores_free) cache-freshness fingerprint."""
        return tuple(self._call("cluster.version"))

    def status(self) -> dict:
        return self._call("cluster.status")

    def fleet_status(self) -> dict:
        """Elastic-fleet snapshot (``{"enabled": False}`` when unmanaged)."""
        return self._call("cluster.fleet")

    def fleet_log(self) -> list[dict]:
        """The fleet manager's bounded scaling-decision log."""
        return self._call("cluster.fleet.log")

    # -- declarative spec ------------------------------------------------------
    def spec_describe(self) -> dict:
        """The live deployment as a spec document."""
        return self._call("cluster.spec.describe")

    def spec_validate(self, spec) -> dict:
        """Collect-all validation report for ``spec`` (never raises)."""
        return self._call("cluster.spec.validate", spec=spec)

    def spec_reconfigure(self, spec: dict, apply: bool = False, manage: bool = False) -> dict:
        """Plan (default) or apply ``spec``; ``manage`` asserts the caller's
        ``manage_cluster`` capability (enforced service-side)."""
        return self._call("cluster.spec.reconfigure", spec=spec, apply=apply, manage=manage)

    # -- jobs -----------------------------------------------------------------
    def submit(self, request: JobRequest) -> dict:
        """Submit over the bus; returns the new job's ``describe()``."""
        if request.callable is not None:
            raise BusError("callable jobs cannot cross the bus")
        return self._call("jobs.submit", request=request.to_wire())

    def describe(self, owner: str, job_id: str, view_all: bool = False) -> dict:
        return self._call("jobs.describe", owner=owner, job_id=job_id, view_all=view_all)

    def list_jobs(self, owner: str, view_all: bool = False) -> list[dict]:
        return self._call("jobs.list", owner=owner, view_all=view_all)

    def output_since(
        self, owner: str, job_id: str, since: int = 0, view_all: bool = False
    ) -> dict:
        return self._call(
            "jobs.output", owner=owner, job_id=job_id, since=since, view_all=view_all
        )

    def output_fingerprint(self, owner: str, job_id: str, view_all: bool = False) -> tuple:
        return tuple(
            self._call("jobs.fingerprint", owner=owner, job_id=job_id, view_all=view_all)
        )

    def send_input(self, owner: str, job_id: str, text: str, view_all: bool = False) -> None:
        self._call("jobs.input", owner=owner, job_id=job_id, text=text, view_all=view_all)

    def cancel(self, owner: str, job_id: str, view_all: bool = False) -> bool:
        return self._call("jobs.cancel", owner=owner, job_id=job_id, view_all=view_all)

    def service_stats(self) -> dict:
        return self._call("service.stats")

"""Exception hierarchy shared by every ``repro`` subpackage.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of the package with a single ``except`` clause
while still being able to discriminate by subsystem.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "SchedulingError",
    "ResourceError",
    "JobError",
    "CompilationError",
    "ToolchainNotFound",
    "PortalError",
    "AuthenticationError",
    "AuthorizationError",
    "FileManagerError",
    "PathTraversalError",
    "MPIError",
    "RankError",
    "TruncationError",
    "DeadlockError",
    "SpecError",
    "LabError",
    "GradingError",
]


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class SimulationError(ReproError):
    """A discrete-event simulation was driven into an invalid state."""


class SchedulingError(ReproError):
    """A job could not be scheduled (malformed request, impossible shape)."""


class ResourceError(ReproError):
    """Resource accounting violation (double free, oversubscription...)."""


class JobError(ReproError):
    """Invalid job state transition or job-level failure."""


class CompilationError(ReproError):
    """Source code failed to compile.

    Attributes
    ----------
    diagnostics:
        Compiler output (real or simulated) suitable for display to the
        portal user.
    """

    def __init__(self, message: str, diagnostics: str = "") -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


class ToolchainNotFound(ReproError):
    """No toolchain is registered (or installed) for the requested language."""


class PortalError(ReproError):
    """Generic portal-layer failure."""


class AuthenticationError(PortalError):
    """Bad credentials, expired/invalid session token."""


class AuthorizationError(PortalError):
    """Authenticated user lacks permission for the operation."""


class FileManagerError(PortalError):
    """File-manager operation failed (missing file, bad destination...)."""


class PathTraversalError(FileManagerError):
    """A user-supplied path attempted to escape the user's home directory."""


class MPIError(ReproError):
    """Base error for the minimpi message-passing library."""


class RankError(MPIError):
    """A rank outside ``[0, size)`` was named in a communication call."""


class TruncationError(MPIError):
    """A receive buffer was too small for the incoming message."""


class DeadlockError(ReproError):
    """The interleaving scheduler proved that all runnable threads block.

    Attributes
    ----------
    cycle:
        The wait-for cycle as a list of (thread name, resource name) edges,
        when the detector recovered one.
    """

    def __init__(self, message: str, cycle: list | None = None) -> None:
        super().__init__(message)
        self.cycle = list(cycle or [])


class BusError(ReproError):
    """Message-bus misuse or an unavailable backend."""


class RpcTimeout(BusError):
    """An RPC call did not receive its reply within the deadline."""


class RpcRemoteError(BusError):
    """The remote handler raised; carries the remote type name.

    Attributes
    ----------
    remote_type:
        Class name of the exception raised by the remote handler, so the
        caller can map it back onto a local error class.
    findings:
        The remote :class:`SpecError`'s findings as ``Finding.as_dict()``
        dicts (empty for every other error).
    """

    def __init__(
        self, message: str, remote_type: str = "Exception", findings: list | None = None
    ) -> None:
        super().__init__(message)
        self.remote_type = remote_type
        self.findings = list(findings or [])


class SpecError(ReproError):
    """A declarative cluster spec failed validation or could not be applied.

    Attributes
    ----------
    findings:
        The :class:`repro.spec.Finding` list that justified the refusal,
        when the error came out of the validator (empty for apply-time
        refusals such as a reconfigure plan that would strand jobs).
    """

    def __init__(self, message: str, findings: list | None = None) -> None:
        super().__init__(message)
        self.findings = list(findings or [])


class LabError(ReproError):
    """A teaching lab was configured or driven incorrectly."""


class GradingError(ReproError):
    """Assessment/grading pipeline failure."""

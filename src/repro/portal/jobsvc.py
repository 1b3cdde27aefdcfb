"""The compile-and-run service layer.

Implements the Section-II flow: "It takes the needed information from a
user, it then creates a compilation and/or executor object, which in
turn upon success contacts a job distributor to allocate resources on
the cluster and finally dispatch the job onto those resources."

Job reads and control (describe, list, output, input, cancel) and the
ownership rules go through the cluster port,
:class:`~repro.bus.local.LocalCluster`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro._errors import CompilationError, JobError
from repro.analysis import AnalysisReport, analyze_source
from repro.cluster.distributor import JobDistributor
from repro.cluster.job import Job, JobKind, JobRequest, RetryPolicy
from repro.portal.auth import User
from repro.portal.files import FileManager
from repro.toolchain.base import CompileResult
from repro.toolchain.registry import ToolchainRegistry

__all__ = ["JobService"]

_BUILD_DIR = ".build"

#: cap on retained pre-submit lint reports (oldest evicted first).
_MAX_LINT_REPORTS = 512

#: cap on retained exploration reports (oldest evicted first).
_MAX_EXPLORE_REPORTS = 256

_EXPLORE_ALGORITHMS = ("dpor", "naive", "dpor-distributed")


class JobService:
    """Glue between the file manager, toolchains and the distributor."""

    def __init__(
        self,
        files: FileManager,
        distributor: JobDistributor,
        registry: ToolchainRegistry | None = None,
    ) -> None:
        self.files = files
        self.distributor = distributor
        self.registry = registry or ToolchainRegistry()
        #: set by the portal so lint runs are counted (optional).
        self.analysis_telemetry = None
        #: job id → pre-submit lint report dict (Python submissions only).
        self._lint_reports: dict[str, dict] = {}
        #: job id → finished exploration report dict.
        self._explore_reports: dict[str, dict] = {}

    # -- compilation ------------------------------------------------------
    def _build(
        self, user: User, rel_path: str, language: str | None
    ) -> tuple[Path, CompileResult, dict]:
        """Compile a file from the user's home: source, result, JSON report."""
        source = self.files.resolve(user.username, rel_path)
        if not source.is_file():
            raise CompilationError(f"no such source file: {rel_path!r}")
        lang = language or self.registry.infer(source)
        if lang is None:
            raise CompilationError(f"cannot infer language of {rel_path!r}; pass language=")
        toolchain = self.registry.resolve(lang)
        # one build directory per source file: ``a/lab.c``, ``b/lab.c`` and
        # ``lab.cpp`` must not share (and overwrite) one ``lab.bin``
        rel = source.relative_to(self.files.resolve(user.username, ""))
        workdir = self.files.home(user.username) / _BUILD_DIR / rel
        result = toolchain.compile(source, workdir)
        report = {
            "ok": result.ok,
            "language": result.language,
            "toolchain": result.toolchain,
            "diagnostics": result.diagnostics,
            "warnings": result.warnings,
        }
        return source, result, report

    def compile(self, user: User, rel_path: str, language: str | None = None) -> dict:
        """Compile a file from the user's home; returns a JSON-able report."""
        _, result, report = self._build(user, rel_path, language)
        if result.ok and result.artifact is not None:
            report["artifact"] = str(
                result.artifact.path.relative_to(self.files.home(user.username))
            )
            report["run_argv"] = result.artifact.run_argv()
        return report

    # -- static analysis ----------------------------------------------------
    def lint(self, user: User, rel_path: str) -> Optional[AnalysisReport]:
        """Statically analyze a Python file in the user's home.

        Returns ``None`` for non-Python sources (the analyzer only
        understands the :mod:`repro.interleave` lab vocabulary).
        """
        source = self.files.resolve(user.username, rel_path)
        if not source.is_file():
            raise CompilationError(f"no such source file: {rel_path!r}")
        if source.suffix != ".py":
            return None
        report = self.lint_source(source.read_text(encoding="utf-8", errors="replace"),
                                  rel_path, surface="lint")
        return report

    def lint_source(
        self, text: str, rel_path: str = "<submission>", surface: str = "lint"
    ) -> AnalysisReport:
        """Analyze raw program text (no file needed)."""
        report = analyze_source(text, rel_path)
        if self.analysis_telemetry is not None:
            self.analysis_telemetry.report_done(surface, report)
        return report

    def lint_report(self, job_id: str) -> Optional[dict]:
        """The pre-submit lint report attached to a job, if any."""
        return self._lint_reports.get(job_id)

    def _attach_lint(self, job: Job, source: Path, rel_path: str) -> Optional[dict]:
        """Best-effort pre-submit pass: diagnostics never block a run."""
        if source.suffix != ".py":
            return None
        try:
            text = source.read_text(encoding="utf-8", errors="replace")
            report = self.lint_source(text, rel_path, surface="submit")
        except Exception:  # noqa: BLE001 - advisory path, never fatal
            return None
        as_dict = report.as_dict()
        self._lint_reports[job.id] = as_dict
        while len(self._lint_reports) > _MAX_LINT_REPORTS:
            self._lint_reports.pop(next(iter(self._lint_reports)))
        return as_dict

    # -- schedule exploration ------------------------------------------------
    def explore(
        self,
        user: User,
        lab_id: str,
        variant: str = "broken",
        algorithm: str = "dpor",
        max_schedules: int = 2000,
        max_seconds: float | None = 30.0,
    ) -> Job:
        """Submit a systematic schedule exploration as a cluster job.

        ``lab_id``/``variant`` name a program from the
        :mod:`repro.labs.explore` registry; ``algorithm`` is ``"dpor"``
        (partial-order reduction), ``"naive"`` (plain DFS) or
        ``"dpor-distributed"`` (the coordinator fans worker jobs back
        out onto this same cluster).  The finished report is retrievable
        via :meth:`explore_report`.
        """
        user.require("submit_job")
        if algorithm not in _EXPLORE_ALGORITHMS:
            raise JobError(
                f"unknown exploration algorithm {algorithm!r} "
                f"(expected one of {', '.join(_EXPLORE_ALGORITHMS)})"
            )
        if max_schedules < 1:
            raise JobError(f"max_schedules must be >= 1, got {max_schedules}")
        from repro.labs.explore import program

        try:
            factory = program(lab_id, variant)
        except KeyError as exc:
            raise JobError(str(exc)) from None

        def run_explore(job: Job) -> dict:
            if algorithm == "dpor-distributed":
                from repro.cluster.workloads import ExploreJobSpec, run_exploration

                res = run_exploration(
                    self.distributor,
                    factory,
                    ExploreJobSpec(
                        partitions=2, seed_schedules=4, wave_budget=max_schedules
                    ),
                )
            else:
                from repro.interleave.explorer import explore as explore_schedules

                res = explore_schedules(
                    factory,
                    max_schedules=max_schedules,
                    strategy="dpor" if algorithm == "dpor" else "dfs",
                    max_seconds=max_seconds,
                )
            report = res.as_dict()
            report.update(
                {"lab": lab_id, "variant": variant, "requested_algorithm": algorithm}
            )
            if algorithm != "dpor-distributed":  # distributed records itself
                from repro.telemetry.instruments import ExploreTelemetry

                ExploreTelemetry(self.distributor.telemetry.registry).record(res)
            self._explore_reports[job.id] = report
            while len(self._explore_reports) > _MAX_EXPLORE_REPORTS:
                self._explore_reports.pop(next(iter(self._explore_reports)))
            job.stdout.write_line(res.summary())
            return report

        request = JobRequest(
            name=f"explore-{lab_id}-{variant}",
            owner=user.username,
            kind=JobKind.SEQUENTIAL,
            callable=run_explore,
        )
        return self.distributor.submit(request)

    def explore_report(self, job: Job) -> dict:
        """The finished exploration report of ``job`` (ownership checked by the caller)."""
        report = self._explore_reports.get(job.id)
        if report is None:
            return {"state": job.state.value, "ready": False, "error": job.error}
        return {"state": job.state.value, "ready": True, "report": report}

    # -- execution ----------------------------------------------------------
    def run(
        self,
        user: User,
        rel_path: str,
        language: str | None = None,
        kind: str = "sequential",
        n_tasks: int = 1,
        cores_per_task: int = 1,
        args: tuple[str, ...] = (),
        stdin_data: str = "",
        timeout_s: float | None = 120.0,
        priority: int = 0,
        need_gpu: bool = False,
        max_retries: int = 0,
        wallclock_timeout_s: float | None = None,
    ) -> tuple[dict, Optional[Job]]:
        """Compile ``rel_path`` and, on success, dispatch it to the cluster.

        Returns ``(compile_report, job_or_None)``.
        """
        user.require("submit_job")
        try:
            job_kind = JobKind(kind)
        except ValueError:
            raise JobError(f"unknown job kind {kind!r} (sequential/parallel/interactive)") from None

        source, result, report = self._build(user, rel_path, language)
        if not result.ok or result.artifact is None:
            return report, None

        if max_retries < 0:
            raise JobError(f"max_retries must be >= 0, got {max_retries}")
        retry = RetryPolicy(max_attempts=max_retries + 1) if max_retries else None
        request = JobRequest(
            name=source.name,
            owner=user.username,
            kind=job_kind,
            argv=result.artifact.run_argv(tuple(str(a) for a in args)),
            n_tasks=n_tasks,
            cores_per_task=cores_per_task,
            stdin_data=stdin_data,
            timeout_s=timeout_s,
            wallclock_timeout_s=wallclock_timeout_s,
            retry=retry,
            priority=priority,
            need_gpu=need_gpu,
            workdir=str(self.files.home(user.username)),
        )
        job = self.distributor.submit(request)
        self._attach_lint(job, source, rel_path)
        return report, job

"""The portal WSGI application: one request pipeline, every endpoint.

:class:`PortalApp` reaches the cluster only through its *cluster port*
(``self.port``): a :class:`~repro.bus.local.LocalCluster` when the app
is built over a :class:`JobService`, or a
:class:`~repro.bus.proxy.ClusterProxy` when it is a scale-out front-end
worker (see :mod:`repro.portal.frontend`).  Routes marked ``*`` need the
home filesystem, toolchains or distributor internals and are registered
only when the app is built with ``files`` and ``jobsvc``.

JSON API (all under ``/api``; cookie- or bearer-authenticated):

==========  =================================  ==========================================
POST        /api/login                         {username, password} → session cookie
POST        /api/logout                        end session
GET         /api/whoami                        current user
POST        /api/users                         create account (admin)
GET         /api/files?path=                   * directory listing
GET         /api/files/content?path=           * download file
PUT         /api/files/content?path=           * create/overwrite file (raw body)
POST        /api/files/upload                  * multipart upload (fields = files)
POST        /api/files/mkdir                   * {path}
POST        /api/files/copy                    * {src, dst}
POST        /api/files/move                    * {src, dst}
POST        /api/files/rename                  * {path, new_name}
DELETE      /api/files?path=                   * delete file/tree
POST        /api/compile                       * {path[, language]}
POST        /api/lint                          * {path} or {source} — static concurrency lint
POST        /api/jobs                          {path, kind, n_tasks, ...} compile+lint+run;
                                               without jobsvc: a JobRequest wire spec
GET         /api/jobs                          this user's jobs
GET         /api/jobs/<job_id>                 one job
GET         /api/jobs/<job_id>/output?since=N  poll stdout/stderr
POST        /api/jobs/<job_id>/input           {text} — interactive stdin
POST        /api/jobs/<job_id>/cancel          cancel
GET         /api/cluster/status                grid utilisation snapshot
GET         /api/cluster/spec                  live config as a spec document
POST        /api/cluster/validate              collect-all spec validation (always 200)
POST        /api/cluster/reconfigure           {spec[, apply]} — plan / apply (instructor)
GET         /api/fleet                         elastic-fleet snapshot (pools, pending)
GET         /metrics                           Prometheus text format (unauthenticated)
GET         /debug/trace/<job_id>              * job span tree (HTML, or ?format=json)
GET         /debug/requests                    recent request traces (admin)
GET         /debug/events                      * structured event log (admin)
GET         /debug/fleet                       fleet scaling-decision log (admin)
==========  =================================  ==========================================

Also ``POST /api/password`` and, marked ``*``: ``POST /api/explore``,
``GET /api/explore/<job_id>``, ``GET /api/cluster/accounting``, ``GET
/api/quota`` and the HTML pages ``GET /`` (dashboard), ``GET
/jobs/<job_id>``, ``GET/POST /login``, ``POST /logout``.
"""

from __future__ import annotations

import time
from email.utils import formatdate
from typing import Callable, Optional

from repro._errors import (
    AuthenticationError,
    AuthorizationError,
    BusError,
    CompilationError,
    FileManagerError,
    JobError,
    PortalError,
    ReproError,
    RpcTimeout,
    SchedulingError,
    SpecError,
    ToolchainNotFound,
)
from repro.bus.local import LocalCluster
from repro.cluster.distributor import JobDistributor
from repro.cluster.job import JobRequest
from repro.portal import templates
from repro.portal.admission import (
    AdmissionController,
    admission_key,
    bind_admission,
    shed_response,
)
from repro.portal.auth import User, UserStore
from repro.portal.files import FileManager
from repro.portal.http import HttpError, Request, Response
from repro.portal.jobsvc import JobService
from repro.portal.respcache import ResponseCache, conditional_get
from repro.portal.routing import Router
from repro.portal.sessions import SessionStore
from repro.telemetry.export import (
    PROMETHEUS_CONTENT_TYPE,
    render_json,
    render_prometheus,
)
from repro.telemetry.instruments import (
    AnalysisTelemetry,
    PortalTelemetry,
    bind_compile_counts,
)
from repro.telemetry.registry import MetricsRegistry

__all__ = ["PortalApp", "make_default_app"]

_COOKIE = "portal_session"

#: first match wins.  Bus failures outrank the generic ReproError → 400:
#: a back-end that stopped answering is the *portal's* fault, not the
#: client's — 503 (with ``Retry-After: 1``) tells pollers to back off.
_ERROR_STATUS: list[tuple[type, int]] = [
    (RpcTimeout, 503),
    (BusError, 502),
    (AuthenticationError, 401),
    (AuthorizationError, 403),
    (FileManagerError, 404),
    (ToolchainNotFound, 400),
    (CompilationError, 400),
    (SchedulingError, 400),
    (JobError, 404),
    (PortalError, 400),
    (ReproError, 400),
]


class PortalApp:
    """The WSGI callable.

    Parameters
    ----------
    files, users, sessions, jobsvc:
        The collaborating services.  With ``files`` and ``jobsvc`` the app
        is the full portal over ``jobsvc.distributor``; use
        :func:`make_default_app` to get one over a simulated cluster.
    port:
        Instead of ``jobsvc``: the cluster port of a front-end worker
        (a :class:`~repro.bus.proxy.ClusterProxy`).  Only the routes that
        need nothing but the port are served.
    """

    def __init__(
        self,
        files: Optional[FileManager],
        users: UserStore,
        sessions: SessionStore,
        jobsvc: Optional[JobService] = None,
        port=None,
        cache_size: int = 256,
        registry=None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        if (jobsvc is None) == (port is None):
            raise ValueError("PortalApp needs exactly one of jobsvc or port")
        self.files = files
        self.users = users
        self.sessions = sessions
        self.jobsvc = jobsvc
        #: the only way to the cluster for every shared route
        self.port = port if jobsvc is None else LocalCluster(
            jobsvc.distributor, admission=admission, jobsvc=jobsvc
        )
        #: front-door admission control; ``None`` admits everything.
        self.admission = admission
        self.router = Router()
        #: conditional-GET response cache; ``cache_size=0`` disables it
        #: (ETags are still emitted, every request renders fresh).
        self.cache = ResponseCache(cache_size)
        #: the full portal shares the distributor's registry so ``/metrics``
        #: serves one unified snapshot; a worker owns its own (pass a
        #: NullRegistry to run it dark).
        if registry is None:
            registry = (
                MetricsRegistry() if jobsvc is None else jobsvc.distributor.telemetry.registry
            )
        self.registry = registry
        self.telemetry = PortalTelemetry(self.registry)
        self.telemetry.bind_router(self.router)
        self.telemetry.bind_sessions(sessions)
        self.cache.bind(self.registry)
        bind_admission(self.registry, admission)
        #: legacy counter key → registry child (same keys as the PR 2 dict).
        self._counters = self.telemetry.c
        self._register_routes()
        if jobsvc is not None:
            #: static-analyzer counters; handed to the job service so both
            #: the explicit lint endpoint and the pre-submit pass are tallied.
            self.analysis_telemetry = AnalysisTelemetry(self.registry)
            jobsvc.analysis_telemetry = self.analysis_telemetry
            bind_compile_counts(self.registry, jobsvc.registry.compile_counts)
            # file mutations invalidate the owning user's cached listings,
            # file contents and dashboard in O(1)
            files.on_mutation(lambda username: self.cache.invalidate(f"files:{username}"))
            self._register_local_routes()

    @property
    def proxy(self):
        """The cluster port under a worker's name for it (``perfbench``
        wraps each worker's ``ClusterProxy`` calls through this name)."""
        return self.port

    # -- WSGI entry ---------------------------------------------------------
    def __call__(self, environ, start_response):
        request = Request(environ)
        tel = self.telemetry
        self._counters["requests"].inc()
        # admission runs before any work: a shed request costs one bucket
        # probe, one small JSON render, and nothing else.  /metrics is
        # exempt — scrapers must see the shed counters *during* overload.
        if self.admission is not None and request.path != "/metrics":
            decision = self.admission.admit(admission_key(request))
            if not decision.admitted:
                response = shed_response(decision)
                if tel.on:
                    tel.c_responses.labels(response.status).inc()
                return response.to_wsgi(start_response)
        else:
            decision = None
        swept = self.sessions.maybe_sweep()
        if swept:
            self._counters["sessions_swept"].inc(swept)
        if tel.on:
            t0 = time.perf_counter()
            span = tel.request_started(request)
        try:
            response = self._handle(request)
        except HttpError as exc:
            response = Response.error(exc.status, exc.message)
        except ReproError as exc:
            status = next((s for t, s in _ERROR_STATUS if isinstance(exc, t)), 400)
            response = Response.error(status, str(exc))
            if status == 503:
                response.headers.append(("Retry-After", "1"))
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            response = Response.error(500, f"internal error: {type(exc).__name__}: {exc}")
        finally:
            if decision is not None:
                self.admission.release()
        if tel.on:
            route = getattr(request, "route", None) or "unmatched"
            tel.request_done(span, route, response.status, time.perf_counter() - t0)
        return response.to_wsgi(start_response)

    # -- observability -------------------------------------------------------
    def stats(self) -> dict:
        """Portal-side counters, derived from the metrics registry
        (see ``GET /metrics``)."""
        return {
            **self.telemetry.portal_counters(),
            **self.router.counters,
            "response_cache": self.cache.stats(),
            "active_sessions": len(self.sessions),
            "sessions_replicated_in": self.sessions.replicated_in,
            "admission": (
                self.admission.stats() if self.admission is not None else {"enabled": False}
            ),
        }

    # -- conditional-GET plumbing ---------------------------------------------
    def _conditional(
        self, req: Request, namespace: str, key, build: Callable[[], Response]
    ) -> Response:
        """Serve a cacheable GET with an ETag, honouring If-None-Match.

        Delegates to the :func:`conditional_get` engine, which stores
        misses under the generation observed at probe time so a racing
        invalidation can never be clobbered by a stale render.
        """
        return conditional_get(self.cache, self._counters, req, namespace, key, build)

    def _stream_counted(self, chunks):
        """Pass chunks through while counting bytes for ``stats()``."""
        streamed = self._counters["bytes_streamed"]
        for chunk in chunks:
            streamed.inc(len(chunk))
            yield chunk

    def _handle(self, request: Request) -> Response:
        request.user = self._authenticate(request)
        span = getattr(request, "tspan", None)
        if span is None:
            return self.router.dispatch(request)
        clock = self.telemetry.clock
        child = span.child("handler", clock())
        response = self.router.dispatch(request)
        child.finish(clock()).set(route=getattr(request, "route", None) or "unmatched")
        return response

    # -- auth middleware -------------------------------------------------------
    @staticmethod
    def _session_token(request: Request) -> str:
        """The session token from the cookie, else from ``Authorization: Bearer``."""
        token = request.cookies().get(_COOKIE)
        if not token:
            bearer = request.header("Authorization")
            if bearer.startswith("Bearer "):
                token = bearer[len("Bearer ") :]
        return token or ""

    def _authenticate(self, request: Request) -> Optional[User]:
        token = self._session_token(request)
        if not token:
            return None
        data = self.sessions.peek(token)
        if data is None:
            return None
        return self.users.get(data.get("username", ""))

    @staticmethod
    def _require_user(request: Request) -> User:
        if request.user is None:
            raise AuthenticationError("login required")
        return request.user

    def _job_target(self, request: Request) -> tuple[str, str, bool]:
        """``(owner, job_id, view_all)``: whose view of which job the port is asked for."""
        user = self._require_user(request)
        return user.username, request.params["job_id"], user.can("view_all_jobs")

    # -- routes ------------------------------------------------------------------
    def _register_routes(self) -> None:
        """The routes every portal serves: users, sessions and the cluster port."""
        r = self.router

        # --- session ---
        r.add("POST", "/api/login", self._api_login)
        r.add("POST", "/api/logout", self._api_logout)
        r.add("GET", "/api/whoami", self._api_whoami)
        r.add("POST", "/api/users", self._api_create_user)
        r.add("POST", "/api/password", self._api_change_password)

        # --- jobs ---
        # bound once: compile+run over the home filesystem, or a wire spec
        r.add("POST", "/api/jobs", self._api_run if self.jobsvc is not None else self._api_submit)
        r.add("GET", "/api/jobs", self._api_list_jobs)
        r.add("GET", "/api/jobs/<job_id>", self._api_get_job)
        r.add("GET", "/api/jobs/<job_id>/output", self._api_job_output)
        r.add("POST", "/api/jobs/<job_id>/input", self._api_job_input)
        r.add("POST", "/api/jobs/<job_id>/cancel", self._api_job_cancel)

        # --- cluster ---
        r.add("GET", "/api/cluster/status", self._api_cluster_status)
        r.add("GET", "/api/cluster/spec", self._api_cluster_spec)
        r.add("POST", "/api/cluster/validate", self._api_cluster_validate)
        r.add("POST", "/api/cluster/reconfigure", self._api_cluster_reconfigure)
        r.add("GET", "/api/fleet", self._api_fleet)

        # --- observability ---
        r.add("GET", "/metrics", self._metrics)
        r.add("GET", "/debug/requests", self._debug_requests)
        r.add("GET", "/debug/fleet", self._debug_fleet)

    def _register_local_routes(self) -> None:
        """Routes needing the home filesystem, toolchains or distributor internals."""
        r = self.router

        # --- files ---
        r.add("GET", "/api/files", self._api_list_files)
        r.add("DELETE", "/api/files", self._api_delete_file)
        r.add("GET", "/api/files/content", self._api_read_file)
        r.add("PUT", "/api/files/content", self._api_write_file)
        r.add("POST", "/api/files/upload", self._api_upload)
        r.add("POST", "/api/files/mkdir", self._api_mkdir)
        r.add("POST", "/api/files/copy", self._api_copy)
        r.add("POST", "/api/files/move", self._api_move)
        r.add("POST", "/api/files/rename", self._api_rename)
        r.add("GET", "/api/quota", self._api_quota)

        # --- compile, lint & explore ---
        r.add("POST", "/api/compile", self._api_compile)
        r.add("POST", "/api/lint", self._api_lint)
        r.add("POST", "/api/explore", self._api_explore)
        r.add("GET", "/api/explore/<job_id>", self._api_explore_report)

        # --- distributor internals ---
        r.add("GET", "/api/cluster/accounting", self._api_cluster_accounting)
        r.add("GET", "/debug/trace/<job_id>", self._debug_trace)
        r.add("GET", "/debug/events", self._debug_events)

        # --- HTML pages ---
        r.add("GET", "/", self._page_dashboard)
        r.add("GET", "/jobs/<job_id>", self._page_job)
        r.add("POST", "/jobs/<job_id>/input", self._page_job_input)
        r.add("GET", "/login", self._page_login)
        r.add("POST", "/login", self._page_do_login)
        r.add("POST", "/logout", self._page_logout)

    # -- session handlers -----------------------------------------------------------
    def _api_login(self, req: Request) -> Response:
        body = req.json()
        user = self.users.authenticate(body.get("username", ""), body.get("password", ""))
        token = self.sessions.create({"username": user.username})
        resp = Response.json({"ok": True, "username": user.username, "role": user.role,
                              "token": token})
        return resp.set_cookie(_COOKIE, token)

    def _api_logout(self, req: Request) -> Response:
        self.sessions.destroy(self._session_token(req))
        return Response.json({"ok": True}).delete_cookie(_COOKIE)

    def _api_whoami(self, req: Request) -> Response:
        user = self._require_user(req)
        return Response.json({"username": user.username, "role": user.role,
                              "full_name": user.full_name})

    def _api_create_user(self, req: Request) -> Response:
        admin = self._require_user(req)
        admin.require("manage_users")
        body = req.json()
        user = self.users.add_user(
            body.get("username", ""),
            body.get("password", ""),
            role=body.get("role", "student"),
            full_name=body.get("full_name", ""),
        )
        return Response.json({"ok": True, "username": user.username, "role": user.role}, status=201)

    # -- file handlers ------------------------------------------------------------------
    def _api_list_files(self, req: Request) -> Response:
        user = self._require_user(req)
        path = req.query.get("path", "")
        # the directory mtime in the key catches out-of-band writes (job
        # artifacts); the files:<user> namespace catches portal mutations
        fp = self.files.fingerprint(user.username, path)
        return self._conditional(
            req,
            f"files:{user.username}",
            ("list", path, fp),
            lambda: Response.json(
                {"entries": [e.as_dict() for e in self.files.list_dir(user.username, path)]}
            ),
        )

    def _api_read_file(self, req: Request) -> Response:
        user = self._require_user(req)
        path = req.query.get("path", "")
        filename = path.rsplit("/", 1)[-1] or "file"
        resolved, st = self.files.file_entry(user.username, path)
        if req.query.get("download"):
            # stat-validated streaming: a 304 never opens the file, a 200
            # never holds more than one chunk in memory
            etag = f'"{st.st_size}-{st.st_mtime_ns}"'
            validators = [
                ("ETag", etag),
                ("Last-Modified", formatdate(st.st_mtime, usegmt=True)),
            ]
            if req.etag_matches(etag):
                self._counters["not_modified"].inc()
                return Response.not_modified(headers=validators)
            return Response.stream(
                self._stream_counted(self.files.iter_file(resolved)),
                content_length=st.st_size,
                filename=filename,
                headers=validators,
            )

        def build() -> Response:
            content = resolved.read_bytes()
            try:
                return Response.json({"path": path, "content": content.decode("utf-8")})
            except UnicodeDecodeError:
                return Response.download(content, filename)

        key = ("content", path, st.st_size, st.st_mtime_ns)
        return self._conditional(req, f"files:{user.username}", key, build)

    def _api_write_file(self, req: Request) -> Response:
        user = self._require_user(req)
        path = req.query.get("path", "")
        if not path:
            raise HttpError(400, "missing ?path=")
        # chunked spool: an N-byte upload never buffers more than one chunk
        entry = self.files.write_stream(user.username, path, req.iter_body())
        return Response.json({"ok": True, "entry": entry.as_dict()}, status=201)

    def _api_upload(self, req: Request) -> Response:
        user = self._require_user(req)
        saved = []
        for field, (filename, content) in req.multipart().items():
            name = filename or field
            entry = self.files.write(user.username, name, content)
            saved.append(entry.as_dict())
        if not saved:
            raise HttpError(400, "no files in upload")
        return Response.json({"ok": True, "saved": saved}, status=201)

    def _api_mkdir(self, req: Request) -> Response:
        user = self._require_user(req)
        self.files.mkdir(user.username, req.json().get("path", ""))
        return Response.json({"ok": True}, status=201)

    def _api_copy(self, req: Request) -> Response:
        user = self._require_user(req)
        body = req.json()
        self.files.copy(user.username, body.get("src", ""), body.get("dst", ""))
        return Response.json({"ok": True})

    def _api_move(self, req: Request) -> Response:
        user = self._require_user(req)
        body = req.json()
        self.files.move(user.username, body.get("src", ""), body.get("dst", ""))
        return Response.json({"ok": True})

    def _api_rename(self, req: Request) -> Response:
        user = self._require_user(req)
        body = req.json()
        new_path = self.files.rename(user.username, body.get("path", ""), body.get("new_name", ""))
        return Response.json({"ok": True, "path": new_path})

    def _api_delete_file(self, req: Request) -> Response:
        user = self._require_user(req)
        self.files.delete(user.username, req.query.get("path", ""))
        return Response.json({"ok": True})

    # -- compile & job handlers --------------------------------------------------------
    def _api_compile(self, req: Request) -> Response:
        user = self._require_user(req)
        body = req.json()
        report = self.jobsvc.compile(user, body.get("path", ""), body.get("language"))
        return Response.json(report, status=200 if report["ok"] else 400)

    def _api_lint(self, req: Request) -> Response:
        """Static concurrency analysis of a lab program.

        Accepts ``{path}`` (a Python file in the user's home) or
        ``{source}`` (raw program text).  Always 200: diagnostics are
        advisory, the report itself says whether the program is clean.
        """
        user = self._require_user(req)
        body = req.json()
        if body.get("source") is not None:
            report = self.jobsvc.lint_source(
                str(body["source"]), str(body.get("path") or "<submission>")
            )
            return Response.json(report.as_dict())
        report = self.jobsvc.lint(user, body.get("path", ""))
        if report is None:
            raise HttpError(400, "static analysis supports Python lab programs only")
        return Response.json(report.as_dict())

    def _api_submit(self, req: Request) -> Response:
        """Submit a :class:`JobRequest` wire spec (argv job) through the port."""
        user = self._require_user(req)
        body = req.json()
        if not isinstance(body, dict):
            raise HttpError(400, "job spec must be a JSON object")
        wire = dict(body)
        wire["owner"] = user.username  # the session decides, not the body
        request = JobRequest.from_wire(wire)  # validate before it reaches the cluster
        return Response.json({"job": self.port.submit(request)}, status=201)

    def _api_run(self, req: Request) -> Response:
        """Compile a source file from the user's home and run it."""
        user = self._require_user(req)
        body = req.json()
        report, job = self.jobsvc.run(
            user,
            body.get("path", ""),
            language=body.get("language"),
            kind=body.get("kind", "sequential"),
            n_tasks=int(body.get("n_tasks", 1)),
            cores_per_task=int(body.get("cores_per_task", 1)),
            args=tuple(body.get("args", ())),
            stdin_data=body.get("stdin", ""),
            timeout_s=body.get("timeout_s", 120.0),
            priority=int(body.get("priority", 0)),
            need_gpu=bool(body.get("need_gpu", False)),
            max_retries=int(body.get("max_retries", 0)),
            wallclock_timeout_s=body.get("wallclock_timeout_s"),
        )
        if job is None:
            return Response.json({"compile": report, "job": None}, status=400)
        return Response.json(
            {
                "compile": report,
                "job": job.describe(),
                # pre-submit static analysis (Python sources only, else None);
                # advisory: findings never block the run
                "lint": self.jobsvc.lint_report(job.id),
            },
            status=201,
        )

    def _api_explore(self, req: Request) -> Response:
        """Submit a systematic schedule exploration of a named lab program.

        Body: ``{lab, variant?, algorithm?, max_schedules?, max_seconds?}``.
        The exploration runs as a cluster job; poll
        ``GET /api/explore/<job_id>`` for the finished report.
        """
        user = self._require_user(req)
        body = req.json()
        max_seconds = body.get("max_seconds", 30.0)
        job = self.jobsvc.explore(
            user,
            str(body.get("lab", "")),
            variant=str(body.get("variant", "broken")),
            algorithm=str(body.get("algorithm", "dpor")),
            max_schedules=int(body.get("max_schedules", 2000)),
            max_seconds=None if max_seconds is None else float(max_seconds),
        )
        return Response.json({"job": job.describe()}, status=201)

    def _api_explore_report(self, req: Request) -> Response:
        job = self.port.job_for(*self._job_target(req))
        return Response.json(self.jobsvc.explore_report(job))

    def _api_list_jobs(self, req: Request) -> Response:
        user = self._require_user(req)
        view_all = user.can("view_all_jobs")
        version, _ = self.port.control_state()
        return self._conditional(
            req, "jobs", ("jobs", user.username, view_all, version),
            lambda: Response.json({"jobs": self.port.list_jobs(user.username, view_all)}),
        )

    def _api_get_job(self, req: Request) -> Response:
        owner, job_id, view_all = self._job_target(req)
        # the fingerprint doubles as the ownership check: it raises
        # AuthorizationError before any cached bytes could leak
        fp = self.port.output_fingerprint(owner, job_id, view_all)
        return self._conditional(
            req, "jobs", ("describe", job_id, fp),
            lambda: Response.json(self.port.describe(owner, job_id, view_all)),
        )

    def _api_job_output(self, req: Request) -> Response:
        owner, job_id, view_all = self._job_target(req)
        try:
            since = int(req.query.get("since", "0"))
        except ValueError:
            raise HttpError(400, "since must be an integer") from None
        # ownership check as above; the fingerprint key self-versions,
        # so a quiet completed job serves 304s to its pollers
        fp = self.port.output_fingerprint(owner, job_id, view_all)
        return self._conditional(
            req, "jobs", ("output", job_id, since, fp),
            lambda: Response.json(self.port.output_since(owner, job_id, since, view_all)),
        )

    def _api_job_input(self, req: Request) -> Response:
        owner, job_id, view_all = self._job_target(req)
        self.port.send_input(owner, job_id, req.json().get("text", ""), view_all)
        return Response.json({"ok": True})

    def _api_job_cancel(self, req: Request) -> Response:
        return Response.json({"ok": self.port.cancel(*self._job_target(req))})

    def _api_change_password(self, req: Request) -> Response:
        user = self._require_user(req)
        body = req.json()
        self.users.change_password(user.username, body.get("old", ""), body.get("new", ""))
        return Response.json({"ok": True})

    def _api_cluster_status(self, req: Request) -> Response:
        self._require_user(req)
        # version bumps on every job-state transition; cores_free catches
        # out-of-band grid changes (fault injection).  Over the bus this is
        # one tiny RPC; the full status render is paid only on change.
        version, cores_free = self.port.control_state()
        return self._conditional(
            req, "cluster", ("status", version, cores_free),
            lambda: Response.json(self.port.status()),
        )

    def _api_cluster_accounting(self, req: Request) -> Response:
        user = self._require_user(req)
        user.require("view_all_jobs")  # accounting spans every owner
        monitor = self.jobsvc.distributor.monitor
        return Response.json(
            {
                "summary": monitor.summary(),
                "records": [
                    {
                        "job_id": rec.job_id,
                        "name": rec.name,
                        "owner": rec.owner,
                        "state": rec.state,
                        "total_cores": rec.total_cores,
                        "wait_s": rec.wait_s,
                        "runtime_s": rec.runtime_s,
                    }
                    for rec in monitor.records[-200:]
                ],
            }
        )

    def _api_cluster_spec(self, req: Request) -> Response:
        """The live deployment serialised as a spec document."""
        self._require_user(req)
        return Response.json({"spec": self.port.spec_describe()})

    def _api_cluster_validate(self, req: Request) -> Response:
        """Collect-all static validation of a posted spec document.

        Accepts the document directly or wrapped as ``{"spec": doc}``.
        Always 200: the report itself says whether the spec is clean —
        every violation carries its SPC-* rule id and document path.
        """
        self._require_user(req)
        body = req.json()
        doc = body.get("spec", body) if isinstance(body, dict) else body
        return Response.json(self.port.spec_validate(doc))

    def _api_cluster_reconfigure(self, req: Request) -> Response:
        """Plan (default) or apply a reconfiguration to the live cluster.

        Body: ``{"spec": doc, "apply": bool}``.  Plan-only returns the
        classified action list; ``apply: true`` additionally executes it
        (400 on an invalid document, 409 when the plan needs
        destroy-recreate actions while jobs are live).
        """
        user = self._require_user(req)
        user.require("manage_cluster")
        body = req.json()
        doc = body.get("spec")
        if not isinstance(doc, dict):
            raise HttpError(400, 'body must carry {"spec": {...}}')
        apply = bool(body.get("apply", False))
        try:
            result = self.port.spec_reconfigure(doc, apply, True)
        except SpecError as exc:
            # an apply refused without findings would strand live jobs
            status = 409 if apply and not exc.findings else 400
            return Response.json(
                {"ok": False, "error": str(exc),
                 "findings": [f.as_dict() for f in exc.findings]},
                status=status,
            )
        if apply:
            self.cache.invalidate("cluster")
        return Response.json({"ok": True, **result})

    def _api_fleet(self, req: Request) -> Response:
        """Elastic-fleet snapshot: pools, sizes, pending scale, cost."""
        self._require_user(req)
        return Response.json(self.port.fleet_status())

    def _api_quota(self, req: Request) -> Response:
        user = self._require_user(req)
        return Response.json(
            {
                "used_bytes": self.files.usage_bytes(user.username),
                "quota_bytes": self.files.quota_bytes,
            }
        )

    # -- observability handlers --------------------------------------------------------
    def _metrics(self, req: Request) -> Response:
        """Prometheus text exposition of the shared registry.

        Deliberately unauthenticated (scrapers don't log in) and
        deliberately *not* routed through :meth:`_conditional`: every
        scrape renders a fresh snapshot, no ETag, no response cache.
        """
        if req.query.get("format") == "json":
            return Response.json(render_json(self.registry.snapshot()))
        return Response(
            render_prometheus(self.registry.snapshot()),
            content_type=PROMETHEUS_CONTENT_TYPE,
        )

    def _debug_trace(self, req: Request) -> Response:
        """Span tree for one job (owner or privileged viewer only).

        Derived from the job's attempt lineage on demand, so it is
        available for every job the distributor still knows — including
        runs with telemetry disabled.
        """
        job = self.port.job_for(*self._job_target(req))
        root = self.jobsvc.distributor.telemetry.job_trace(job)
        if req.query.get("format") == "json":
            return Response.json({"job_id": job.id, "trace": root.as_dict()})
        return Response.html(templates.trace_page(job.id, root.as_dict()))

    def _debug_requests(self, req: Request) -> Response:
        """Recent portal request traces (admin debugging)."""
        user = self._require_user(req)
        user.require("view_all_jobs")
        tracer = self.telemetry.tracer
        traces = [
            {"id": trace_id, "trace": tracer.get(trace_id).as_dict()}
            for trace_id in tracer.ids()[-50:]
            if tracer.get(trace_id) is not None
        ]
        return Response.json({"requests": traces})

    def _debug_fleet(self, req: Request) -> Response:
        """The fleet manager's scaling-decision log (admin debugging)."""
        user = self._require_user(req)
        user.require("view_all_jobs")
        enabled = bool(self.port.fleet_status().get("enabled"))
        return Response.json({"enabled": enabled, "decisions": self.port.fleet_log()})

    def _debug_events(self, req: Request) -> Response:
        """The distributor's structured event log (admin debugging)."""
        user = self._require_user(req)
        user.require("view_all_jobs")
        severity = req.query.get("severity") or None
        events = self.jobsvc.distributor.telemetry.events.snapshot(
            min_severity=severity, limit=200
        )
        return Response.json({"events": [e.as_dict() for e in events]})

    # -- HTML page handlers ----------------------------------------------------------------
    def _page_dashboard(self, req: Request) -> Response:
        if req.user is None:
            return Response.redirect("/login")
        user = req.user
        dist = self.jobsvc.distributor

        def build() -> Response:
            files = [e.as_dict() for e in self.files.list_dir(user.username)]
            jobs = self.port.list_jobs(user.username, user.can("view_all_jobs"))
            cluster = dist.grid.snapshot()
            health = dist.health.snapshot() if dist.health is not None else None
            return Response.html(
                templates.dashboard_page(user.username, files, jobs, cluster, health=health)
            )

        key = ("dash", *self.port.control_state())
        return self._conditional(req, f"files:{user.username}", key, build)

    def _page_job(self, req: Request) -> Response:
        if req.user is None:
            return Response.redirect("/login")
        job = self.port.job_for(*self._job_target(req))
        out, _, _ = job.stdout.text_since(0)
        err, _, _ = job.stderr.text_since(0)
        lint = self.jobsvc.lint_report(job.id)
        return Response.html(templates.job_page(job.describe(), out, err, lint=lint))

    def _page_job_input(self, req: Request) -> Response:
        if req.user is None:
            return Response.redirect("/login")
        owner, job_id, view_all = self._job_target(req)
        text = req.form().get("text", "")
        if text:
            self.port.send_input(owner, job_id, text + "\n", view_all)
        return Response.redirect(f"/jobs/{job_id}")

    def _page_login(self, req: Request) -> Response:
        return Response.html(templates.login_page())

    def _page_do_login(self, req: Request) -> Response:
        form = req.form()
        try:
            user = self.users.authenticate(form.get("username", ""), form.get("password", ""))
        except AuthenticationError as exc:
            return Response.html(templates.login_page(error=str(exc)), status=401)
        token = self.sessions.create({"username": user.username})
        return Response.redirect("/").set_cookie(_COOKIE, token)

    def _page_logout(self, req: Request) -> Response:
        self.sessions.destroy(self._session_token(req))
        return Response.redirect("/login").delete_cookie(_COOKIE)


def make_default_app(
    root_dir: str,
    cluster_spec=None,
    admin_password: str = "admin-pass",
    quota_bytes: int | None = None,
    cache_size: int = 256,
    admission: Optional[AdmissionController] = None,
) -> PortalApp:
    """Assemble a complete portal over a fresh in-process cluster.

    Creates the grid (paper's 4×16 shape by default), a subprocess
    execution backend, the distributor, stores, and one ``admin``
    account.  This is what ``examples/quickstart.py`` and the
    integration tests call.
    """
    from repro.cluster.backends import SubprocessBackend
    from repro.cluster.grid import Grid
    from repro.cluster.spec import ClusterSpec

    grid = Grid(cluster_spec or ClusterSpec.uhd_default())
    distributor = JobDistributor(grid, SubprocessBackend())
    files = FileManager(root_dir, quota_bytes=quota_bytes)
    users = UserStore()
    users.add_user("admin", admin_password, role="admin", full_name="Portal Administrator")
    sessions = SessionStore()
    jobsvc = JobService(files, distributor)
    return PortalApp(
        files, users, sessions, jobsvc, cache_size=cache_size, admission=admission
    )

"""One portal pipeline: the full portal and a scale-out worker answer alike.

Both surfaces are the same :class:`~repro.portal.app.PortalApp`; the full
portal reaches its distributor in process, a ``FrontendFleet`` worker
reaches it over the bus.  Every shared route must give the same status
codes and the same body keys on both.
"""

from __future__ import annotations

import json
import sys
import time

import pytest

from repro._errors import PortalError
from repro.cluster.backends import SubprocessBackend
from repro.cluster.distributor import JobDistributor
from repro.cluster.grid import Grid
from repro.cluster.spec import ClusterSpec
from repro.portal import PortalClient
from repro.portal.app import make_default_app
from repro.portal.frontend import FrontendFleet
from repro.toolchain import PythonToolchain

STUDENTS = {"alice": "alice-pass", "bob": "bob-pass"}
#: the account make_default_app creates; the worker fixture adds it
USERS = {**STUDENTS, "admin": "admin-pass"}

STATUS_KEYS = ["dispatch", "durability", "faults", "grid", "health", "jobs", "policy", "queued"]
JOB_KEYS = ["attempt", "attempts", "cores_per_task", "error", "exit_code", "id", "kind",
            "n_tasks", "name", "owner", "placement", "priority", "retries", "runtime_s",
            "state", "wait_s"]
OUTPUT_KEYS = ["attempt", "attempts", "error", "exit_code", "next", "retries", "state",
               "stderr_tail", "stdout", "truncated"]
ERROR_KEYS = ["error", "status"]


@pytest.fixture(params=["monolith", "worker"])
def surface(request, tmp_path):
    """``(app, submit body)``: the POST /api/jobs body each surface runs
    ``print("hello")`` with — a source file to compile on the full
    portal, an argv wire spec on a worker."""
    if request.param == "monolith":
        app = make_default_app(str(tmp_path / "homes"), cluster_spec=ClusterSpec.small())
        app.jobsvc.registry.register(PythonToolchain(), extensions=(".py",))
        for name, password in STUDENTS.items():
            app.users.add_user(name, password)
        app.files.write("alice", "hello.py", b'print("hello")\n')
        yield app, {"path": "hello.py"}
        app.jobsvc.distributor.wait_all(10)
        return
    dist = JobDistributor(Grid(ClusterSpec.small()), SubprocessBackend())
    fleet = FrontendFleet(dist, n_workers=1).start()
    try:
        for name, password in STUDENTS.items():
            fleet.users.add_user(name, password)
        fleet.users.add_user("admin", USERS["admin"], role="admin")
        yield fleet.workers[0], {"name": "hello.py",
                                 "argv": [sys.executable, "-c", 'print("hello")']}
        dist.wait_all(10)
    finally:
        fleet.stop()


def _request(app, method, path, token=None, body=None, etag=None):
    """One raw request: ``(status, headers, decoded JSON body or None)``."""
    headers = {}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    if etag:
        headers["If-None-Match"] = etag
    raw = b""
    if body is not None:
        raw = json.dumps(body).encode()
        headers["Content-Type"] = "application/json"
    status, resp_headers, payload = PortalClient(app=app)._transport.request(
        method, path, raw, headers
    )
    return status, resp_headers, json.loads(payload) if payload else None


def _login(app, username):
    status, _, data = _request(
        app, "POST", "/api/login", body={"username": username, "password": USERS[username]}
    )
    assert status == 200
    return data


def test_shared_routes_answer_alike(surface):
    app, submit_body = surface
    login = _login(app, "alice")
    assert sorted(login) == ["ok", "role", "token", "username"]
    token = login["token"]

    def get(path, etag=None, as_user=token):
        return _request(app, "GET", path, token=as_user, etag=etag)

    status, _, data = get("/api/whoami")
    assert (status, sorted(data)) == (200, ["full_name", "role", "username"])

    status, headers, data = get("/api/cluster/status")
    assert (status, sorted(data)) == (200, STATUS_KEYS)
    assert get("/api/cluster/status", etag=headers["ETag"])[0] == 304

    status, _, data = _request(app, "POST", "/api/jobs", token=token, body=submit_body)
    assert status == 201 and sorted(data["job"]) == JOB_KEYS
    job_id = data["job"]["id"]

    status, _, data = get("/api/jobs")
    assert (status, sorted(data)) == (200, ["jobs"])
    assert [sorted(j) for j in data["jobs"]] == [JOB_KEYS]

    deadline = time.monotonic() + 30
    while get(f"/api/jobs/{job_id}")[2]["state"] != "completed":
        assert time.monotonic() < deadline, "job did not complete"
        time.sleep(0.02)
    status, headers, data = get(f"/api/jobs/{job_id}")
    assert (status, sorted(data)) == (200, JOB_KEYS)
    assert get(f"/api/jobs/{job_id}", etag=headers["ETag"])[0] == 304

    status, headers, data = get(f"/api/jobs/{job_id}/output")
    assert (status, sorted(data)) == (200, OUTPUT_KEYS)
    assert data["stdout"] == ["hello"]
    assert get(f"/api/jobs/{job_id}/output", etag=headers["ETag"])[0] == 304

    bob = _login(app, "bob")["token"]
    status, _, data = get(f"/api/jobs/{job_id}", as_user=bob)
    assert (status, sorted(data)) == (403, ERROR_KEYS)
    status, _, data = get("/api/jobs/job-999999")
    assert (status, sorted(data)) == (404, ERROR_KEYS)

    status, _, data = _request(app, "POST", f"/api/jobs/{job_id}/cancel", token=token)
    assert (status, data) == (200, {"ok": False})  # already completed

    status, _, data = _request(app, "POST", "/api/logout", token=token)
    assert (status, data) == (200, {"ok": True})
    assert get("/api/whoami")[0] == 401


def test_spec_and_fleet_routes_answer_alike(surface):
    app, _ = surface
    token = _login(app, "admin")["token"]

    def call(method, path, body=None):
        status, _, data = _request(app, method, path, token=token, body=body)
        return status, data

    status, data = call("GET", "/api/cluster/spec")
    assert (status, sorted(data)) == (200, ["spec"])
    live = data["spec"]
    status, data = call("POST", "/api/cluster/reconfigure", {"spec": live})
    assert (status, data["applied"], data["plan"]["actions"]) == (200, False, [])

    bad = dict(live, scheduler={"policy": "nope"})
    status, report = call("POST", "/api/cluster/validate", {"spec": bad})
    assert status == 200 and not report["ok"]
    # the validator's findings reach the client on both surfaces: a
    # refused apply is 400 with them, not 409 (which means live jobs)
    status, data = call("POST", "/api/cluster/reconfigure", {"spec": bad, "apply": True})
    assert (status, sorted(data)) == (400, ["error", "findings", "ok"])
    assert data["findings"] == report["findings"]

    assert call("GET", "/api/fleet") == (200, {"enabled": False})
    assert call("GET", "/debug/fleet") == (200, {"enabled": False, "decisions": []})


def test_bearer_logout_ends_the_session(surface):
    app, _ = surface
    client = PortalClient(app=app)
    client.login("alice", USERS["alice"])
    token = client._token
    client.logout()  # authenticates by Bearer token, sends no cookie
    probe = PortalClient(app=app)
    probe._token = token
    with pytest.raises(PortalError, match="401"):
        probe.whoami()
    assert len(app.sessions) == 0

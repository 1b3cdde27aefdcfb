"""Admission control: token buckets, backpressure, and portal wiring."""

from __future__ import annotations

import math
import tempfile

import pytest

from repro.portal import PortalClient, make_default_app
from repro.portal.admission import (
    AdmissionController,
    TokenBucket,
    admission_key,
    shed_response,
)
from repro.portal.http import Request


def _env(path="/", **extra):
    env = {
        "REQUEST_METHOD": "GET",
        "PATH_INFO": path,
        "QUERY_STRING": "",
        "REMOTE_ADDR": "10.0.0.9",
    }
    env.update(extra)
    return env


class TestTokenBucket:
    def test_burst_then_exact_refill_wait(self):
        bucket = TokenBucket(rate=2.0, burst=3.0, now=0.0)
        assert [bucket.try_take(0.0) for _ in range(3)] == [0.0, 0.0, 0.0]
        # empty: one token lands every 0.5s
        assert bucket.try_take(0.0) == pytest.approx(0.5)
        # half a token accrued by t=0.25 -> wait for the other half
        assert bucket.try_take(0.25) == pytest.approx(0.25)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        bucket.try_take(0.0)
        assert bucket.try_take(100.0) == 0.0  # refilled, but only to burst
        assert bucket.tokens == pytest.approx(1.0)

    def test_zero_rate_waits_forever(self):
        bucket = TokenBucket(rate=0.0, burst=1.0, now=0.0)
        bucket.try_take(0.0)
        assert bucket.try_take(1000.0) == math.inf


class TestAdmissionController:
    def _clock(self):
        state = {"t": 0.0}
        return state, (lambda: state["t"])

    def test_rate_rejection_is_429_with_exact_retry_after(self):
        state, now = self._clock()
        ac = AdmissionController(rate_per_s=1.0, burst=2.0, now_fn=now)
        assert ac.admit("alice").admitted
        assert ac.admit("alice").admitted
        decision = ac.admit("alice")
        assert not decision.admitted and decision.status == 429
        assert decision.retry_after_s == pytest.approx(1.0)
        state["t"] = 1.0  # one token has landed
        assert ac.admit("alice").admitted

    def test_buckets_are_per_user(self):
        _state, now = self._clock()
        ac = AdmissionController(rate_per_s=1.0, burst=1.0, now_fn=now)
        assert ac.admit("alice").admitted
        assert not ac.admit("alice").admitted
        assert ac.admit("bob").admitted  # bob's bucket is untouched

    def test_overload_rejection_is_503_scaling_with_backlog(self):
        _state, now = self._clock()
        ac = AdmissionController(
            rate_per_s=1e9, burst=1e9, max_inflight=2, queue_limit=2,
            drain_rate_per_s=10.0, now_fn=now,
        )
        decisions = [ac.admit(f"u{i}") for i in range(4)]
        assert all(d.admitted for d in decisions)
        assert [d.queued for d in decisions] == [False, False, True, True]
        rejected = ac.admit("u5")
        assert not rejected.admitted and rejected.status == 503
        assert rejected.retry_after_s > 0
        ac.release()
        assert ac.admit("u6").admitted  # capacity freed -> admitted again

    def test_queue_depth_tracks_backlog(self):
        _state, now = self._clock()
        ac = AdmissionController(
            rate_per_s=1e9, burst=1e9, max_inflight=1, queue_limit=5, now_fn=now
        )
        for i in range(3):
            ac.admit(f"u{i}")
        assert ac.inflight == 3 and ac.queue_depth == 2
        ac.release()
        assert ac.queue_depth == 1

    def test_bucket_table_is_bounded_lru(self):
        _state, now = self._clock()
        ac = AdmissionController(max_users=100, now_fn=now)
        for i in range(250):
            ac.admit(f"student-{i}")
        assert ac.tracked_users == 100
        assert ac.stats()["evicted_users"] == 150

    def test_stats_shape(self):
        _state, now = self._clock()
        ac = AdmissionController(rate_per_s=1.0, burst=1.0, now_fn=now)
        ac.admit("a")
        ac.admit("a")
        stats = ac.stats()
        for key in ("admitted", "rejected_429", "rejected_503", "rejected_429_503",
                    "inflight", "queue_depth", "queued_peak", "retry_after_s",
                    "tracked_users", "evicted_users"):
            assert key in stats
        assert stats["admitted"] == 1
        assert stats["rejected_429_503"] == 1

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)


class TestAdmissionKey:
    def test_cookie_sid_prefix_wins(self):
        req = Request(_env(HTTP_COOKIE="portal_session=abc123.sig99; theme=dark"))
        assert admission_key(req) == "abc123"

    def test_bearer_token_fallback(self):
        req = Request(_env(HTTP_AUTHORIZATION="Bearer tok55.sig"))
        assert admission_key(req) == "tok55"

    def test_remote_addr_fallback(self):
        assert admission_key(Request(_env())) == "10.0.0.9"

    def test_anon_last_resort(self):
        env = _env()
        del env["REMOTE_ADDR"]
        assert admission_key(Request(env)) == "anon"


class TestShedResponse:
    def test_retry_after_rounds_up_to_whole_seconds(self):
        from repro.portal.admission import AdmissionDecision

        resp = shed_response(AdmissionDecision(False, status=429, retry_after_s=0.3))
        assert resp.status == 429
        assert ("Retry-After", "1") in resp.headers
        resp = shed_response(AdmissionDecision(False, status=503, retry_after_s=2.4))
        assert resp.status == 503
        assert ("Retry-After", "3") in resp.headers


@pytest.fixture
def limited_portal():
    root = tempfile.mkdtemp(prefix="admission_portal_")
    admission = AdmissionController(rate_per_s=0.5, burst=3.0)
    app = make_default_app(root, admission=admission)
    client = PortalClient(app=app)
    client.login("admin", "admin-pass")
    return app, client, admission


class TestPortalIntegration:
    def _raw_get(self, client, path):
        headers = {"Authorization": f"Bearer {client._token}"}
        return client._transport.request("GET", path, b"", headers)

    def test_burst_exhaustion_returns_429_with_retry_after(self, limited_portal):
        app, client, admission = limited_portal
        statuses = []
        retry_after = None
        for _ in range(5):
            status, headers, _body = self._raw_get(client, "/api/whoami")
            statuses.append(status)
            if status == 429:
                retry_after = headers.get("Retry-After")
        assert 429 in statuses, f"rate limit never tripped: {statuses}"
        assert retry_after is not None and int(retry_after) >= 1
        assert admission.rejected_429 > 0

    def test_stats_expose_admission_block(self, limited_portal):
        app, _client, _admission = limited_portal
        block = app.stats()["admission"]
        assert block["admitted"] >= 1
        assert "rejected_429_503" in block and "queue_depth" in block

    def test_metrics_scrapes_are_never_shed(self, limited_portal):
        app, client, _admission = limited_portal
        for _ in range(10):
            status, _headers, body = self._raw_get(client, "/metrics")
            assert status == 200
        assert b"repro_admission_rejected_total" in body
        assert b"repro_admission_admitted_total" in body

    def test_no_admission_controller_admits_everything(self):
        root = tempfile.mkdtemp(prefix="admission_off_")
        app = make_default_app(root)
        client = PortalClient(app=app)
        client.login("admin", "admin-pass")
        for _ in range(20):
            assert client.whoami()["username"] == "admin"
        assert app.stats()["admission"] == {"enabled": False}

    def test_release_runs_even_when_handler_raises(self, limited_portal):
        app, client, admission = limited_portal
        self._raw_get(client, "/api/jobs/job-999999")  # 404s inside the handler
        assert admission.inflight == 0

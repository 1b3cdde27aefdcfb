"""Portal fast path: conditional GET, cache invalidation, streaming,
usage accounting, and session sweeping.

These tests pin the contracts behind the portal's read-path cache:

* every cached endpoint does an honest ETag 200 → 304 round trip;
* *every* mutation route (PUT content, upload, delete, rename) and
  every job-state transition invalidates what it must — a cached read
  never goes stale;
* large downloads stream in bounded chunks instead of buffering the
  whole file;
* per-user disk usage is delta-maintained and agrees with a full walk;
* expired sessions are reclaimed from the request path itself.
"""

from __future__ import annotations

import io
import json

import pytest

from repro._errors import FileManagerError
from repro.cluster.spec import ClusterSpec
from repro.portal import PortalClient, make_default_app
from repro.portal.files import CHUNK_BYTES, FileManager
from repro.portal.files import _tree_bytes
from repro.portal.respcache import CachedResponse, ResponseCache
from repro.portal.sessions import SessionStore

C_SOURCE = '#include <stdio.h>\nint main(void){ printf("fast\\n"); return 0; }\n'


def wsgi_get(app, path, token, extra=None):
    """Raw WSGI GET returning (status, headers dict, body iterable)."""
    environ = {
        "REQUEST_METHOD": "GET",
        "PATH_INFO": path.split("?")[0],
        "QUERY_STRING": path.partition("?")[2],
        "CONTENT_LENGTH": "0",
        "wsgi.input": io.BytesIO(b""),
        "HTTP_AUTHORIZATION": f"Bearer {token}",
    }
    if extra:
        environ.update(extra)
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split(" ", 1)[0])
        captured["headers"] = dict(headers)

    chunks = app(environ, start_response)
    return captured["status"], captured["headers"], chunks


@pytest.fixture
def fast_portal(tmp_path):
    app = make_default_app(str(tmp_path / "homes"), cluster_spec=ClusterSpec.small())
    client = PortalClient(app=app, conditional=True)
    client.login("admin", "admin-pass")
    return app, client


def token_of(client: PortalClient) -> str:
    return client._token


class TestConditionalGet:
    def test_etag_roundtrip_200_then_304(self, fast_portal):
        app, client = fast_portal
        client.write_file("notes.txt", "hello")
        token = token_of(client)
        path = "/api/files/content?path=notes.txt"

        status, headers, chunks = wsgi_get(app, path, token)
        body = b"".join(chunks)
        assert status == 200
        etag = headers["ETag"]
        assert json.loads(body)["content"] == "hello"

        status, headers, chunks = wsgi_get(
            app, path, token, {"HTTP_IF_NONE_MATCH": etag}
        )
        assert status == 304
        assert b"".join(chunks) == b""
        assert "Content-Length" not in headers

    def test_stale_etag_gets_fresh_200(self, fast_portal):
        app, client = fast_portal
        client.write_file("notes.txt", "hello")
        token = token_of(client)
        path = "/api/files/content?path=notes.txt"
        _, headers, _ = wsgi_get(app, path, token)
        old_etag = headers["ETag"]

        client.write_file("notes.txt", "changed")
        status, headers, chunks = wsgi_get(
            app, path, token, {"HTTP_IF_NONE_MATCH": old_etag}
        )
        assert status == 200
        assert json.loads(b"".join(chunks))["content"] == "changed"
        assert headers["ETag"] != old_etag

    def test_conditional_client_replays_from_cache(self, fast_portal):
        app, client = fast_portal
        client.write_file("a.txt", "x")
        before = app.stats()["not_modified"]
        for _ in range(5):
            assert client.read_file("a.txt") == "x"
        stats = app.stats()
        assert stats["not_modified"] >= before + 4
        assert stats["response_cache"]["hits"] > 0

    def test_listing_invalidated_by_every_mutation_route(self, fast_portal):
        _, client = fast_portal
        client.mkdir("work")
        client.write_file("work/a.txt", "a")
        assert {e["name"] for e in client.list_files("work")} == {"a.txt"}

        # PUT /api/files/content
        client.write_file("work/b.txt", "b")
        assert {e["name"] for e in client.list_files("work")} == {"a.txt", "b.txt"}
        # POST /api/files/upload (multipart)
        client.upload({"c.txt": b"c"})
        assert "c.txt" in {e["name"] for e in client.list_files("")}
        # POST /api/files/rename
        client.rename("work/b.txt", "bb.txt")
        assert {e["name"] for e in client.list_files("work")} == {"a.txt", "bb.txt"}
        # POST /api/files/move
        client.move("work/bb.txt", "bb.txt")
        assert {e["name"] for e in client.list_files("work")} == {"a.txt"}
        # DELETE /api/files
        client.delete("work/a.txt")
        assert client.list_files("work") == []

    def test_deleted_file_content_is_gone_immediately(self, fast_portal):
        _, client = fast_portal
        client.write_file("gone.txt", "bye")
        assert client.read_file("gone.txt") == "bye"
        client.delete("gone.txt")
        with pytest.raises(Exception):
            client.read_file("gone.txt")

    def test_job_state_transitions_refresh_status_and_output(self, fast_portal):
        app, client = fast_portal
        client.write_file("prog.c", C_SOURCE)
        status_before = client.cluster_status()
        client.cluster_status()  # cached now

        job_id = client.submit_job("prog.c")["job"]["id"]
        # submission bumped the distributor version: poll must see the job
        seen = client.cluster_status()
        assert sum(seen["jobs"].values()) > sum(status_before.get("jobs", {}).values())

        client.wait_for_job(job_id, timeout=60)
        out = client.job_output(job_id)
        assert out["stdout"] == ["fast"]
        # completion is visible through the cached status endpoint too
        assert client.cluster_status()["jobs"].get("completed", 0) >= 1

    def test_output_poll_cache_hits_while_job_is_quiet(self, fast_portal):
        app, client = fast_portal
        client.write_file("prog.c", C_SOURCE)
        job_id = client.submit_job("prog.c")["job"]["id"]
        client.wait_for_job(job_id, timeout=60)
        client.job_output(job_id)
        hits_before = app.cache.stats()["hits"]
        for _ in range(4):
            client.job_output(job_id)
        assert app.cache.stats()["hits"] >= hits_before + 4


class TestStreamingDownload:
    def test_32mb_download_streams_in_bounded_chunks(self, fast_portal):
        app, client = fast_portal
        size = 32 * 1024 * 1024
        # written directly: uploads cap at 16 MiB, downloads must not
        big = app.files.home("admin") / "big.bin"
        big.write_bytes(b"\x5a" * size)
        app.files.refresh_usage("admin")
        token = token_of(client)

        status, headers, chunks = wsgi_get(
            app, "/api/files/content?path=big.bin&download=1", token
        )
        assert status == 200
        assert int(headers["Content-Length"]) == size
        total = n_chunks = 0
        for chunk in chunks:  # never joined: memory stays one chunk deep
            assert len(chunk) <= CHUNK_BYTES
            total += len(chunk)
            n_chunks += 1
        assert total == size
        assert n_chunks >= size // CHUNK_BYTES
        assert app.stats()["bytes_streamed"] >= size

    def test_304_download_streams_nothing(self, fast_portal):
        app, client = fast_portal
        client.write_file("blob.bin", b"\x01" * 100_000)
        token = token_of(client)
        path = "/api/files/content?path=blob.bin&download=1"
        _, headers, chunks = wsgi_get(app, path, token)
        assert len(b"".join(chunks)) == 100_000
        streamed = app.stats()["bytes_streamed"]

        status, _, chunks = wsgi_get(
            app, path, token, {"HTTP_IF_NONE_MATCH": headers["ETag"]}
        )
        assert status == 304
        assert b"".join(chunks) == b""
        assert app.stats()["bytes_streamed"] == streamed

    def test_streamed_upload_is_not_buffered_by_handler(self, fast_portal):
        _, client = fast_portal
        payload = bytes(range(256)) * 4096  # 1 MiB
        client.write_file("up.bin", payload)
        assert client.download_file("up.bin") == payload


class TestUsageAccounting:
    def check(self, fm: FileManager, user: str):
        counted = fm.usage_bytes(user)
        assert counted == _tree_bytes(fm.home(user)), "usage counter drifted"

    def test_deltas_match_full_walk(self, tmp_path):
        fm = FileManager(tmp_path)
        fm.write("u", "a.txt", b"x" * 100)
        self.check(fm, "u")
        fm.write("u", "a.txt", b"x" * 10)  # overwrite smaller
        self.check(fm, "u")
        fm.write("u", "a.txt", b"x" * 5000)  # overwrite larger
        self.check(fm, "u")
        fm.mkdir("u", "d")
        fm.copy("u", "a.txt", "d/b.txt")
        self.check(fm, "u")
        fm.rename("u", "d/b.txt", "c.txt")
        self.check(fm, "u")
        fm.move("u", "d/c.txt", "c.txt")
        self.check(fm, "u")
        fm.delete("u", "c.txt")
        self.check(fm, "u")
        fm.delete("u", "d")
        self.check(fm, "u")
        assert fm.usage_bytes("u") == 5000

    def test_refresh_usage_sees_out_of_band_writes(self, tmp_path):
        fm = FileManager(tmp_path)
        fm.write("u", "a.txt", b"x" * 10)
        (fm.home("u") / "side.bin").write_bytes(b"y" * 999)  # e.g. a job artifact
        assert fm.refresh_usage("u") == 1009
        assert fm.usage_bytes("u") == 1009

    def test_write_stream_quota_abort_leaves_old_file_intact(self, tmp_path):
        fm = FileManager(tmp_path, quota_bytes=1000)
        fm.write("u", "a.txt", b"old-content")

        def chunks():
            for _ in range(10):
                yield b"z" * 200

        with pytest.raises(FileManagerError):
            fm.write_stream("u", "a.txt", chunks())
        assert fm.read("u", "a.txt") == b"old-content"
        self_check = fm.usage_bytes("u")
        assert self_check == _tree_bytes(fm.home("u"))  # no .part debris counted
        assert [p.name for p in fm.home("u").iterdir()] == ["a.txt"]


class TestSessionSweep:
    def test_expired_sessions_reclaimed_through_request_path(self, tmp_path):
        app = make_default_app(str(tmp_path / "homes"), cluster_spec=ClusterSpec.small())
        clock = [0.0]
        store = SessionStore(
            ttl_s=10.0, now_fn=lambda: clock[0], sweep_every=8, sweep_interval_s=1e9
        )
        app.sessions = store

        for _ in range(50):  # a classroom's worth of abandoned logins
            store.create({"username": "ghost"})
        client = PortalClient(app=app, conditional=True)
        client.login("admin", "admin-pass")
        assert len(store) == 51

        clock[0] = 9.0
        client.cluster_status()  # sliding expiry: admin refreshed to t=19
        clock[0] = 11.0  # ghosts (expire t=10) are now dead
        for _ in range(10):  # > sweep_every requests force a sweep
            client.cluster_status()
        assert len(store) == 1, "expired sessions not reclaimed under load"
        assert app.stats()["sessions_swept"] >= 50
        assert client.whoami()["username"] == "admin"  # survivor still valid

    def test_maybe_sweep_paced_by_op_count(self):
        clock = [0.0]
        store = SessionStore(
            ttl_s=1.0, now_fn=lambda: clock[0], sweep_every=5, sweep_interval_s=1e9
        )
        for _ in range(3):
            store.create({"u": 1})
        clock[0] = 2.0
        removed = sum(store.maybe_sweep() for _ in range(4))
        assert removed == 0  # not due yet
        assert store.maybe_sweep() == 3  # fifth op triggers the sweep

    def test_maybe_sweep_paced_by_interval(self):
        clock = [0.0]
        store = SessionStore(
            ttl_s=1.0, now_fn=lambda: clock[0], sweep_every=10**9, sweep_interval_s=30.0
        )
        store.create({"u": 1})
        clock[0] = 31.0
        assert store.maybe_sweep() == 1

    def test_invalid_tokens_still_rejected(self):
        store = SessionStore()
        token = store.create({"u": 1})
        sid, _, sig = token.partition(".")
        for bad in ("", "justsid", f"{sid}.deadbeef", f"{sid}.ÿ{sig[1:]}", f".{sig}"):
            assert store.peek(bad) is None
        assert store.peek(token) == {"u": 1}


class TestResponseCache:
    @staticmethod
    def entry(body: bytes, etag: str) -> CachedResponse:
        return CachedResponse(body=body, etag=etag, content_type="t")

    def test_lru_eviction(self):
        cache = ResponseCache(capacity=2)
        for i in range(3):
            cache.store("ns", i, self.entry(b"x", f'"{i}"'))
        assert cache.lookup("ns", 0) is None  # oldest evicted
        assert cache.lookup("ns", 2) is not None
        assert len(cache) == 2

    def test_invalidation_is_per_namespace(self):
        cache = ResponseCache()
        cache.store("files:alice", "k", self.entry(b"a", '"a"'))
        cache.store("files:bob", "k", self.entry(b"b", '"b"'))
        cache.invalidate("files:alice")
        assert cache.lookup("files:alice", "k") is None
        assert cache.lookup("files:bob", "k").body == b"b"

    def test_oversized_bodies_are_not_cached(self):
        cache = ResponseCache(capacity=4, max_body_bytes=10)
        assert not cache.store("ns", "k", self.entry(b"x" * 11, '"e"'))
        assert cache.lookup("ns", "k") is None

    def test_zero_capacity_disables_caching(self):
        cache = ResponseCache(capacity=0)
        assert not cache.store("ns", "k", self.entry(b"x", '"e"'))
        assert cache.lookup("ns", "k") is None

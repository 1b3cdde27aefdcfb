"""Request/reply RPC over the message bus.

Wire discipline: every payload that crosses the bus is round-tripped
through JSON (:func:`encode_wire`/:func:`decode_wire`).  In-process the
bytes could be skipped, but enforcing the codec here means a front-end
can never accidentally share a live object with the back-end — the
boundary stays honest, so swapping the in-memory backend for a real
broker changes no calling code.

Envelopes are plain dicts::

    request:  {"method", "params", "reply_to", "corr"}
    reply:    {"corr", "ok": result}            on success
              {"corr", "err": {"type", "message"[, "findings"]}}  on handler failure

Handler exceptions are encoded and re-raised client-side as
:class:`RpcRemoteError` carrying the remote class name, which the portal
front-end maps back onto its HTTP error table.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Optional

from repro._errors import BusError, RpcRemoteError, RpcTimeout
from repro.bus.core import MessageBus

__all__ = ["RpcClient", "RpcServer", "decode_wire", "encode_wire"]


def encode_wire(payload: Any) -> str:
    """Serialise ``payload`` for the bus; rejects non-JSON-able objects."""
    try:
        return json.dumps(payload, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise BusError(f"payload is not wire-safe: {exc}") from None


def decode_wire(data: str) -> Any:
    try:
        return json.loads(data)
    except (TypeError, ValueError) as exc:
        raise BusError(f"malformed wire payload: {exc}") from None


class RpcServer:
    """Drains one service queue, dispatching requests to named handlers.

    Run :meth:`serve_step` from your own loop, or :meth:`start` a daemon
    thread.  ``on_reply`` lets a wrapper intercept outgoing replies (the
    back-end service uses it to model control-plane latency).
    """

    def __init__(self, bus: MessageBus, service_queue: str) -> None:
        self.bus = bus
        self.service_queue = service_queue
        self._handlers: dict[str, Callable[[dict], Any]] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: override to defer/shape reply delivery; default sends at once.
        self.on_reply: Callable[[str, str], None] = self.bus.send
        self.requests_served = 0
        self.errors_returned = 0

    def register(self, method: str, handler: Callable[[dict], Any]) -> None:
        self._handlers[method] = handler

    # -- the loop ------------------------------------------------------------
    def serve_step(self, timeout: float = 0.05) -> bool:
        """Handle at most one request; returns whether one arrived."""
        raw = self.bus.receive(self.service_queue, timeout)
        if raw is None:
            return False
        req = decode_wire(raw)
        reply: dict[str, Any] = {"corr": req.get("corr")}
        try:
            handler = self._handlers.get(req.get("method", ""))
            if handler is None:
                raise BusError(f"unknown RPC method {req.get('method')!r}")
            reply["ok"] = handler(req.get("params") or {})
        except Exception as exc:  # noqa: BLE001 - every failure crosses the wire
            reply["err"] = {"type": type(exc).__name__, "message": str(exc)}
            findings = getattr(exc, "findings", None)  # SpecError's validator findings
            if findings:
                reply["err"]["findings"] = [f.as_dict() for f in findings]
            self.errors_returned += 1
        self.requests_served += 1
        reply_to = req.get("reply_to")
        if reply_to:
            self.on_reply(reply_to, encode_wire(reply))
        return True

    def start(self, name: str = "rpc-server") -> None:
        if self._thread is not None:
            raise BusError("RPC server already started")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                self.serve_step(timeout=0.05)

        self._thread = threading.Thread(target=loop, daemon=True, name=name)
        self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout)
        self._thread = None


class RpcClient:
    """One caller's end of the request/reply pair.

    Each client owns a private reply queue, so concurrent clients never
    steal each other's replies.  A single client may also be shared by
    concurrent threads (a front-end worker serving parallel requests):
    in-flight calls register their correlation id, one thread at a time
    drains the reply queue and deposits each reply with its waiter, and
    only replies nobody is waiting for — late answers to timed-out
    calls — are dropped.
    """

    _ids = itertools.count(1)

    def __init__(
        self, bus: MessageBus, service_queue: str, client_id: str | None = None
    ) -> None:
        self.bus = bus
        self.service_queue = service_queue
        self.client_id = client_id or f"c{next(self._ids)}"
        self.reply_queue = f"rpc.reply.{self.client_id}"
        self._corr = itertools.count(1)
        self._pending: dict[int, tuple[threading.Event, dict]] = {}
        self._pending_lock = threading.Lock()
        self._drain_lock = threading.Lock()
        self.calls = 0
        self.timeouts = 0
        self.stale_dropped = 0

    def call(self, method: str, params: dict | None = None, timeout: float = 5.0) -> Any:
        """Invoke ``method`` on the service; returns the decoded result.

        Raises :class:`RpcTimeout` when no reply lands in ``timeout``
        seconds and :class:`RpcRemoteError` when the handler raised.
        """
        corr = next(self._corr)
        self.calls += 1
        done = threading.Event()
        slot: dict[str, Any] = {"reply": None}
        with self._pending_lock:
            self._pending[corr] = (done, slot)
        try:
            self.bus.send(
                self.service_queue,
                encode_wire(
                    {
                        "method": method,
                        "params": params or {},
                        "reply_to": self.reply_queue,
                        "corr": corr,
                    }
                ),
            )
            deadline = None if timeout is None else time.monotonic() + timeout
            while not done.is_set():
                if deadline is not None and time.monotonic() >= deadline:
                    self.timeouts += 1
                    raise RpcTimeout(
                        f"no reply to {method!r} from {self.service_queue!r} "
                        f"within {timeout}s"
                    )
                if self._drain_lock.acquire(blocking=False):
                    try:
                        if not done.is_set():
                            self._drain_once(deadline)
                    finally:
                        self._drain_lock.release()
                else:
                    # another thread is draining; it will deposit our reply
                    done.wait(0.02)
        finally:
            with self._pending_lock:
                self._pending.pop(corr, None)
        reply = slot["reply"]
        err = reply.get("err")
        if err is not None:
            raise RpcRemoteError(
                err.get("message", "remote error"),
                remote_type=err.get("type", "Exception"),
                findings=err.get("findings"),
            )
        return reply.get("ok")

    def _drain_once(self, deadline: float | None) -> None:
        """Receive one reply and hand it to whichever call it answers.

        Short receive slices keep takeover cheap: when the draining
        thread's own reply lands it stops draining, and any still-waiting
        thread picks up the role within one slice.
        """
        wait = 0.05
        if deadline is not None:
            wait = max(0.0, min(wait, deadline - time.monotonic()))
        raw = self.bus.receive(self.reply_queue, wait)
        if raw is None:
            return
        reply = decode_wire(raw)
        with self._pending_lock:
            entry = self._pending.get(reply.get("corr"))
        if entry is None:
            # late answer to a call that already timed out
            self.stale_dropped += 1
            return
        event, slot = entry
        slot["reply"] = reply
        event.set()

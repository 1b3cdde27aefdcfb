"""The cluster back-end service: one distributor behind an RPC queue.

:class:`ClusterBackendService` is the only thing on the cluster side of
the bus.  It is an RPC shell: each method name in :data:`PORT_METHODS`
maps to one call of the cluster port on a
:class:`~repro.bus.local.LocalCluster`, with the request params as
keyword arguments.  Ownership is therefore enforced *here*, by the same
check the in-process portal uses, not just at the front-ends: every job
method takes the calling user and a ``view_all`` capability flag, so a
buggy front-end cannot leak another student's job across the bus.

``reply_latency_s`` models the control-plane round trip a real cluster
imposes (the paper's portal talks to its cluster over a network; our
distributor is an in-process simulation).  Replies are *scheduled* on a
due-heap and delivered by the same loop — one thread, no per-request
sleeps — so N outstanding requests from N front-end workers overlap
their waits exactly the way they would against a remote master node.
This is what the scale-out capacity model in
``benchmarks/bench_scaleout.py`` measures.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Callable, Optional

from repro._errors import BusError, JobError
from repro.bus.core import MessageBus
from repro.bus.local import LocalCluster
from repro.bus.rpc import RpcServer
from repro.cluster.distributor import JobDistributor
from repro.cluster.job import JobRequest

__all__ = ["ClusterBackendService", "DEFAULT_SERVICE_QUEUE"]

DEFAULT_SERVICE_QUEUE = "cluster.backend"

#: RPC method name → cluster-port method; ``jobs.submit`` is served apart
#: because its request crosses the wire as a ``JobRequest.to_wire()`` dict.
PORT_METHODS = {
    "cluster.version": "control_state",
    "cluster.status": "status",
    "cluster.fleet": "fleet_status",
    "cluster.fleet.log": "fleet_log",
    "cluster.spec.describe": "spec_describe",
    "cluster.spec.validate": "spec_validate",
    "cluster.spec.reconfigure": "spec_reconfigure",
    "jobs.describe": "describe",
    "jobs.list": "list_jobs",
    "jobs.output": "output_since",
    "jobs.fingerprint": "output_fingerprint",
    "jobs.input": "send_input",
    "jobs.cancel": "cancel",
}


def _by_keyword(method: Callable) -> Callable[[dict], object]:
    return lambda params: method(**params)


class ClusterBackendService:
    """Back-end service loop serving the cluster port of one distributor."""

    def __init__(
        self,
        bus: MessageBus,
        distributor: JobDistributor,
        service_queue: str = DEFAULT_SERVICE_QUEUE,
        reply_latency_s: float = 0.0,
        clock=time.monotonic,
    ) -> None:
        self.bus = bus
        self.distributor = distributor
        self.cluster = LocalCluster(distributor)
        self.reply_latency_s = reply_latency_s
        self._clock = clock
        self.server = RpcServer(bus, service_queue)
        for method, name in PORT_METHODS.items():
            self.server.register(method, _by_keyword(getattr(self.cluster, name)))
        for method, handler in (
            ("jobs.submit", self._h_submit),
            ("cluster.checkpoint", self._h_checkpoint),
            ("cluster.durability", self._h_durability),
            ("service.stats", self._h_stats),
        ):
            self.server.register(method, handler)
        # latency-shaped delivery: replies wait on a due-heap drained by
        # the delivery thread (never sleep-per-reply — that would
        # serialise the back-end and defeat multi-worker overlap).
        self._due: list[tuple[float, int, str, str]] = []
        self._due_seq = 0
        self._due_cond = threading.Condition()
        self._delivery: Optional[threading.Thread] = None
        self._stop = threading.Event()
        if reply_latency_s > 0:
            self.server.on_reply = self._delayed_reply

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ClusterBackendService":
        self.server.start(name="cluster-backend")
        if self.reply_latency_s > 0:
            self._stop.clear()
            self._delivery = threading.Thread(
                target=self._delivery_loop, daemon=True, name="backend-replies"
            )
            self._delivery.start()
        return self

    def stop(self) -> None:
        self.server.stop()
        self._stop.set()
        with self._due_cond:
            self._due_cond.notify()
        if self._delivery is not None:
            self._delivery.join(2.0)
            self._delivery = None

    # -- latency model --------------------------------------------------------
    def _delayed_reply(self, queue: str, data: str) -> None:
        with self._due_cond:
            self._due_seq += 1
            heapq.heappush(
                self._due, (self._clock() + self.reply_latency_s, self._due_seq, queue, data)
            )
            self._due_cond.notify()

    def _delivery_loop(self) -> None:
        while not self._stop.is_set():
            with self._due_cond:
                if not self._due:
                    self._due_cond.wait(0.05)
                    continue
                now = self._clock()
                if self._due[0][0] > now:
                    self._due_cond.wait(self._due[0][0] - now)
                    continue
                _, _, queue, data = heapq.heappop(self._due)
            self.bus.send(queue, data)

    # -- handlers outside the cluster port --------------------------------------
    def _h_submit(self, params: dict) -> dict:
        wire = params.get("request")
        if not isinstance(wire, dict):
            raise BusError("jobs.submit needs a 'request' object")
        return self.cluster.submit(JobRequest.from_wire(wire))

    def _h_checkpoint(self, params: dict) -> dict:
        """Force a snapshot + compaction now (admin surface, e.g. pre-upgrade)."""
        if self.distributor.journal is None:
            raise JobError("cluster runs without a journal; nothing to checkpoint")
        return self.distributor.checkpoint()

    def _h_durability(self, params: dict) -> dict:
        return self.distributor.durability_stats()

    def _h_stats(self, params: dict) -> dict:
        return {
            "bus": self.bus.stats(),
            "requests_served": self.server.requests_served,
            "errors_returned": self.server.errors_returned,
            "reply_latency_s": self.reply_latency_s,
            "replies_pending": len(self._due),
        }

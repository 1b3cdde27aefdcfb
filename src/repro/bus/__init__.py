"""Message bus + RPC boundary between portal front-ends and the cluster.

The scale-out architecture (DESIGN §13) splits the portal into N
front-end workers that drive one cluster back-end through an explicit
messaging boundary:

* :mod:`repro.bus.core` — the thread-safe :class:`MessageBus` over a
  substitutable backend object (the in-memory backend ships);
* :mod:`repro.bus.rpc` — request/reply on top of the bus: JSON wire
  codec, correlation ids, timeouts, remote-error propagation;
* :mod:`repro.bus.local` — :class:`LocalCluster`, the *cluster port*
  (the calls the portal makes) served in process by one
  :class:`JobDistributor`;
* :mod:`repro.bus.service` — :class:`ClusterBackendService`, the RPC
  shell that serves a ``LocalCluster`` by method name;
* :mod:`repro.bus.proxy` — :class:`ClusterProxy`, the same port as a
  typed client stub, which each front-end worker holds instead of the
  distributor.
"""

from repro._errors import BusError, RpcRemoteError, RpcTimeout
from repro.bus.core import InMemoryBackend, MessageBus
from repro.bus.local import LocalCluster
from repro.bus.proxy import ClusterProxy
from repro.bus.rpc import RpcClient, RpcServer, decode_wire, encode_wire
from repro.bus.service import ClusterBackendService

__all__ = [
    "BusError",
    "ClusterBackendService",
    "ClusterProxy",
    "InMemoryBackend",
    "LocalCluster",
    "MessageBus",
    "RpcClient",
    "RpcRemoteError",
    "RpcServer",
    "RpcTimeout",
    "decode_wire",
    "encode_wire",
]

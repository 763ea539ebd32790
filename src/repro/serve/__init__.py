"""Fault-tolerant multi-host campaign service.

Three processes, one contract:

* **coordinator** (``repro serve``) — leases fingerprinted jobs to
  workers under heartbeat deadlines and dedups results fleet-wide in a
  content-addressed store (:mod:`repro.serve.coordinator`);
* **worker** (``repro work``) — leases, executes with the engine's own
  supervised entry point, publishes idempotent results
  (:mod:`repro.serve.worker`);
* **client** (``repro campaign --remote``) — an ordinary
  :class:`~repro.engine.executors.Executor` that shards a session's
  batches through the fleet and degrades gracefully to local execution
  (:mod:`repro.serve.client`).

The invariant every module here defends is the one that anchors the
whole repo: whatever the network does — dropped responses, torn bodies,
stalls, duplicated deliveries, workers SIGKILLed mid-lease — a remote
campaign converges to the byte-identical results and registry run ids
of the serial run, because jobs replay named seed streams and every
request is idempotent by fingerprint.
"""

from repro.serve.client import RemoteExecutor, Transport
from repro.serve.coordinator import Coordinator
from repro.serve.protocol import (
    ORIGIN_REMOTE,
    ORIGIN_REMOTE_CACHE,
    PROTOCOL_VERSION,
)
from repro.serve.worker import WorkerAgent

__all__ = [
    "Coordinator",
    "ORIGIN_REMOTE",
    "ORIGIN_REMOTE_CACHE",
    "PROTOCOL_VERSION",
    "RemoteExecutor",
    "Transport",
    "WorkerAgent",
]

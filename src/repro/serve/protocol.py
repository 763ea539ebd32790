"""Wire format of the multi-host campaign service.

One deliberately small HTTP/JSON protocol connects the three roles of
:mod:`repro.serve` — the submitting client (``repro campaign --remote``),
the coordinator (``repro serve``) and the worker agents (``repro work``):

===========================  ====================================================
``POST /v1/jobs``            client submits a batch of fingerprinted job specs
``POST /v1/lease``           worker asks for a lease over pending jobs
``POST /v1/heartbeat``       worker renews a lease's deadline
``PUT  /v1/result/<fp>``     worker publishes one job's result (idempotent)
``POST /v1/collect``         client polls for completed results
``GET  /v1/status``          JSON service snapshot (queue, leases, store, counters)
``GET  /healthz``            liveness probe
===========================  ====================================================

Every request and response body is a JSON object; job specs and result
payloads travel inside it as base64-wrapped canonical pickles
(:func:`repro.registry.store.encode_object`), so the bytes that cross
the wire are exactly the bytes the content-addressed stores hash.

Trace context rides on *headers*, not bodies: the PR-9 span envelope
(``repro-trace-id`` / ``repro-parent-id`` / ``repro-span-schema``) was
shaped like HTTP headers from the start, and here those keys finally go
on a real socket.  The coordinator parses them case-insensitively,
tolerates unknown headers, and rejects a newer envelope schema with a
400 rather than misreading it — mirroring
:meth:`repro.observe.spans.SpanContext.from_envelope`.

Idempotency is the protocol's core invariant: submissions are keyed on
job fingerprints, results are keyed on job fingerprints, and re-sending
any request cannot change service state — which is what lets the chaos
transport (dropped responses, torn bodies, stalls, duplicated
deliveries) retry blindly without perturbing a single byte of results.
"""

from __future__ import annotations

import base64
import json
from typing import Any, Dict, Mapping, Optional

# Job states the coordinator reports are the attempt ledger's.
from repro.engine.leases import JOB_DONE, JOB_LEASED, JOB_PENDING, JOB_QUARANTINED
from repro.errors import ServeProtocolError
from repro.observe.spans import (
    ENVELOPE_PARENT_KEY,
    ENVELOPE_SCHEMA_KEY,
    ENVELOPE_TRACE_KEY,
    SPAN_SCHEMA_VERSION,
    SpanContext,
)

#: Bumped whenever request/response shapes change incompatibly.
PROTOCOL_VERSION = 1

#: Extra service headers riding alongside the span envelope.
PROTOCOL_HEADER = "repro-serve-protocol"
WORKER_HEADER = "repro-worker-id"

#: Content type of every protocol body.
CONTENT_TYPE = "application/json; charset=utf-8"

#: Result origins reported to the client (and recorded by the session).
ORIGIN_REMOTE = "remote"
ORIGIN_REMOTE_CACHE = "remote-cache"


def encode_payload(blob: bytes) -> str:
    """Wrap pickle bytes for a JSON body (base64, ASCII-safe)."""
    return base64.b64encode(blob).decode("ascii")


def decode_payload(text: str) -> bytes:
    """Unwrap a base64 payload; raises :class:`ServeProtocolError`."""
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as error:
        raise ServeProtocolError(
            f"malformed base64 payload: {error}"
        ) from error


def dumps_message(message: Mapping[str, Any]) -> bytes:
    """Canonical JSON bytes for one protocol message."""
    return json.dumps(message, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def loads_message(blob: bytes) -> Dict[str, Any]:
    """Parse one protocol body; raises :class:`ServeProtocolError`.

    A chaos-torn (truncated) body fails here, which the client treats
    exactly like a dropped response: retry the idempotent request.
    """
    try:
        message = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ServeProtocolError(
            f"malformed protocol body ({len(blob)} bytes): {error}"
        ) from error
    if not isinstance(message, dict):
        raise ServeProtocolError(
            f"protocol body must be a JSON object, got {type(message).__name__}"
        )
    return message


def require(message: Mapping[str, Any], *fields: str) -> None:
    """Assert required fields; raises :class:`ServeProtocolError`."""
    missing = [field for field in fields if field not in message]
    if missing:
        raise ServeProtocolError(
            f"protocol message is missing field(s) {missing!r}"
        )


def check_protocol(headers: Mapping[str, str]) -> None:
    """Reject a newer protocol version rather than misreading it."""
    lowered = {str(k).lower(): str(v) for k, v in headers.items()}
    raw = lowered.get(PROTOCOL_HEADER, str(PROTOCOL_VERSION))
    try:
        version = int(raw)
    except ValueError as error:
        raise ServeProtocolError(
            f"{PROTOCOL_HEADER} header must be an integer, got {raw!r}"
        ) from error
    if version > PROTOCOL_VERSION:
        raise ServeProtocolError(
            f"protocol version {version} is newer than supported "
            f"{PROTOCOL_VERSION}"
        )


def span_headers(context: Optional[SpanContext]) -> Dict[str, str]:
    """The span-envelope headers for one request (empty without context)."""
    if context is None:
        return {}
    return context.to_envelope()


def context_from_headers(
    headers: Mapping[str, str],
) -> Optional[SpanContext]:
    """Parse the span envelope off real HTTP headers.

    Header lookup is case-insensitive and unknown headers are ignored
    (HTTP semantics).  Returns ``None`` when no envelope rides on the
    request; raises :class:`ServeProtocolError` when an envelope is
    present but its schema is newer than this process understands.
    """
    lowered = {str(k).lower(): str(v) for k, v in headers.items()}
    if (
        ENVELOPE_TRACE_KEY not in lowered
        and ENVELOPE_PARENT_KEY not in lowered
        and ENVELOPE_SCHEMA_KEY not in lowered
    ):
        return None
    try:
        return SpanContext.from_envelope(lowered)
    except Exception as error:
        # ConfigurationError for a newer schema or a half-missing
        # envelope; either way the request is malformed, not the server.
        raise ServeProtocolError(f"bad span envelope: {error}") from error


__all__ = [
    "CONTENT_TYPE",
    "ENVELOPE_PARENT_KEY",
    "ENVELOPE_SCHEMA_KEY",
    "ENVELOPE_TRACE_KEY",
    "JOB_DONE",
    "JOB_LEASED",
    "JOB_PENDING",
    "JOB_QUARANTINED",
    "ORIGIN_REMOTE",
    "ORIGIN_REMOTE_CACHE",
    "PROTOCOL_HEADER",
    "PROTOCOL_VERSION",
    "SPAN_SCHEMA_VERSION",
    "WORKER_HEADER",
    "check_protocol",
    "context_from_headers",
    "decode_payload",
    "dumps_message",
    "encode_payload",
    "loads_message",
    "require",
    "span_headers",
]

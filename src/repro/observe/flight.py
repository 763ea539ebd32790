"""Flight dumps: bounded post-mortem trace artifacts keyed by job.

An engine job records into a ring when ``REPRO_FLIGHT_DIR`` selects a
directory (``execute_job`` gives it ``Telemetry(max_events=FLIGHT_CAPACITY)``):
that ring is the flight recorder.  When the job fails, the ring is frozen
into a replayable JSONL dump named by :func:`job_dump_name` after the
job's fingerprint — on an exception escaping the job
(:func:`dump_job_failure`), on an invariant violation a fuzz case
reports (``FuzzJob.run``, with the schedule in the header's context so
the dump replays) and, header-only, on a quarantine verdict
(:func:`dump_quarantine`).  Every dump, and the ``repro fuzz --out``
artifact, goes through :func:`write_flight_dump`, so
``repro fuzz --replay`` reads one format.

Line 1 of a dump is a header object (reason, sim time, machine
fingerprint, the violation/error description and caller context), the
remaining lines are trace events in ``repro.telemetry.export`` form.
Nothing wall-clock enters a dump, so the same failure produces the same
artifact byte for byte; a job without a tracer has an empty ring and a
header-only dump.  :func:`load_flight_dump` raises
:class:`~repro.errors.ObserveError` for an unreadable file or a
malformed line.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import ConfigurationError, ObserveError
from repro.telemetry.export import event_from_dict, event_to_dict
from repro.telemetry.events import TraceEvent

#: Schema tag in every dump header; stale artifacts fail loudly.
FLIGHT_SCHEMA_VERSION = 1

#: Environment knob: when set, job dumps are written below this
#: directory.  Unset means no dumps (and no trace ring).
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"

#: Dump header discriminator.
DUMP_KIND = "flight-recorder"

#: Trace events a dump keeps: the ring an engine job records into when
#: ``REPRO_FLIGHT_DIR`` is set.
FLIGHT_CAPACITY = 256


def flight_dir_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[Path]:
    """The dump directory selected by ``REPRO_FLIGHT_DIR`` (or ``None``)."""
    env = os.environ if environ is None else environ
    raw = env.get(FLIGHT_DIR_ENV, "").strip()
    return Path(raw) if raw else None


@dataclass
class FlightDump:
    """A parsed flight-recorder artifact."""

    header: Dict[str, Any]
    events: List[TraceEvent]

    @property
    def reason(self) -> str:
        return str(self.header.get("reason", "unknown"))

    @property
    def schedule(self) -> Optional[Dict[str, Any]]:
        """The embedded fuzz schedule, when the dump is replayable."""
        context = self.header.get("context") or {}
        return context.get("schedule")


def load_flight_dump(source: Union[str, Path]) -> FlightDump:
    """Parse a dump from JSONL text or a file path.

    A string holding a newline, or starting with ``{``, is dump text;
    any other string is a path.  A file that cannot be read, a header
    that is not a flight-recorder header and an event line that is not a
    trace event (a dump cut short mid-line) all raise
    :class:`~repro.errors.ObserveError`.
    """
    if isinstance(source, str) and ("\n" in source or source.lstrip()[:1] in ("", "{")):
        text = source
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            raise ObserveError(f"cannot read flight dump {source}: {error}") from error
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ObserveError("flight dump is empty")
    try:
        header = json.loads(lines[0])
    except ValueError as error:
        raise ObserveError(f"flight dump header is not JSON: {error}") from error
    if not isinstance(header, dict) or header.get("kind") != DUMP_KIND:
        raise ObserveError("not a flight-recorder dump (missing header)")
    if header.get("schema") != FLIGHT_SCHEMA_VERSION:
        raise ObserveError(
            f"flight dump schema {header.get('schema')!r} != {FLIGHT_SCHEMA_VERSION}"
        )
    events = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            events.append(event_from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError, AttributeError, ConfigurationError) as error:
            raise ObserveError(
                f"flight dump line {number} is not a trace event: {error}"
            ) from error
    return FlightDump(header=header, events=events)


def write_flight_dump(
    path: Union[str, Path],
    reason: str,
    events: Sequence[TraceEvent] = (),
    *,
    capacity: int = 0,
    context: Optional[Dict[str, Any]] = None,
    sim_time_s: float = 0.0,
    crash_count: Optional[int] = None,
    machine: Optional[Dict[str, Any]] = None,
    violation: Optional[Dict[str, Any]] = None,
    error: Optional[BaseException] = None,
) -> Path:
    """Write one dump to ``path`` atomically; returns the path.

    The header line comes first, then one line per event.  An ``error``
    with ``to_dict()`` (an invariant violation) is also the header's
    violation unless one is given.  The text lands in a ``*.tmp.<pid>``
    sibling and is renamed into place, so a process killed mid-dump
    leaves no truncated dump behind.
    """
    if violation is None and hasattr(error, "to_dict"):
        violation = error.to_dict()
    header: Dict[str, Any] = {
        "kind": DUMP_KIND,
        "schema": FLIGHT_SCHEMA_VERSION,
        "reason": reason,
        "capacity": capacity,
        "events": len(events),
        "sim_time_s": sim_time_s,
        "crash_count": crash_count,
        "machine": machine,
        "violation": violation,
        "error": (
            {"type": type(error).__name__, "message": str(error)}
            if error is not None
            else None
        ),
        "context": context,
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines.extend(
        json.dumps(event_to_dict(event), sort_keys=True, separators=(",", ":"))
        for event in events
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    partial.write_text("\n".join(lines) + "\n", encoding="utf-8")
    partial.replace(path)
    return path


def job_dump_name(job: Any, prefix: str = "job") -> str:
    """A job's dump file name: ``<prefix>-<fingerprint[:12]>.flight.jsonl``."""
    return f"{prefix}-{job.fingerprint()[:12]}.flight.jsonl"


def dump_job(
    job: Any,
    reason: str,
    telemetry: Optional[Any] = None,
    *,
    prefix: str = "job",
    dump_dir: Optional[Union[str, Path]] = None,
    **header: Any,
) -> Optional[Path]:
    """Freeze ``telemetry``'s trace ring into the job's dump.

    Writes ``job_dump_name(job, prefix)`` below ``dump_dir`` or the
    ``REPRO_FLIGHT_DIR`` directory; returns ``None`` (and writes
    nothing) when neither is set.  The dump keeps the ring's last
    ``FLIGHT_CAPACITY`` events; with no telemetry it is header-only.
    ``header`` holds the remaining :func:`write_flight_dump` fields;
    ``sim_time_s`` defaults to the last kept event's time.
    """
    directory = Path(dump_dir) if dump_dir is not None else flight_dir_from_env()
    if directory is None:
        return None
    events: Sequence[TraceEvent] = ()
    if telemetry is not None:
        header.setdefault("capacity", FLIGHT_CAPACITY)
        if telemetry.tracer is not None:
            events = telemetry.tracer.events[-FLIGHT_CAPACITY:]
    header.setdefault("sim_time_s", events[-1].time_s if events else 0.0)
    return write_flight_dump(
        directory / job_dump_name(job, prefix), reason, events, **header
    )


def dump_quarantine(
    job: Any,
    error: BaseException,
    attempts: int,
    *,
    dump_dir: Optional[Union[str, Path]] = None,
) -> Optional[Path]:
    """Write a flight dump for a job the supervised executor quarantined.

    Called from the *supervising* process, where the worker that failed
    (or died — ``os._exit`` leaves no traceback at all) is gone, so no
    trace ring is available: the dump is header-only, carrying the job's
    identity, seed path, the terminal error and the attempt count.  A
    worker-side :func:`dump_job_failure` dump for the same fingerprint
    (written on each raising attempt when ``REPRO_FLIGHT_DIR`` is set)
    holds the trace tail; this artifact is the supervisor's verdict.
    """
    return dump_job(
        job,
        "quarantined-job",
        prefix="quarantine",
        dump_dir=dump_dir,
        error=error,
        context={
            "job": {
                "kind": job.kind,
                "fingerprint": job.fingerprint(),
                "seed_path": list(job.seed_path()),
            },
            "attempts": attempts,
        },
    )


def dump_job_failure(
    job: Any,
    telemetry: Any,
    error: BaseException,
    *,
    dump_dir: Optional[Union[str, Path]] = None,
) -> Optional[Path]:
    """Write a flight dump for an exception escaping an engine job.

    Called from the worker entry point, where no machine handle is in
    scope — the post-mortem ring is the job's own telemetry tracer and
    the identity is the job's fingerprint.
    """
    return dump_job(
        job,
        "unhandled-exception",
        telemetry,
        dump_dir=dump_dir,
        error=error,
        context={"job": {"kind": job.kind, "fingerprint": job.fingerprint()}},
    )

"""Crash flight recorder: bounded post-mortem trace dumps.

A :class:`FlightRecorder` rides on a machine's telemetry tracer and, at
the moment something goes wrong, freezes the last ``capacity`` trace
events into a replayable JSONL artifact together with the machine's
seed/spec fingerprint.  It is a :class:`repro.kernel.sim.SimObserver` on
the machine's simulator, so it may be installed before or after an
invariant checker or profiler.  Three failure paths are wired to it:

* an :class:`~repro.errors.InvariantViolation` raised by an installed
  :class:`~repro.verify.InvariantChecker` (the checker calls every
  observer's :meth:`on_violation` before raising);
* a crash-model machine check (``Machine.reboot`` calls every observer's
  :meth:`on_crash`; the recorder dumps only when crash recording is on —
  characterization sweeps crash thousands of times by design, so crash
  dumps are opt-in);
* an unhandled exception escaping a campaign job
  (:func:`dump_job_failure`, called by the engine's
  ``execute_job`` worker entry point).

Artifacts are plain JSONL: line 1 is a header object (reason, sim time,
machine fingerprint, the violation/error description, and any caller
context such as the fuzz schedule that makes the dump replayable), the
remaining lines are trace events in ``repro.telemetry.export`` form.
Nothing wall-clock enters a dump, so the same failure produces the same
artifact byte for byte.

For bounded memory on long runs pair the recorder with
``Telemetry(max_events=FLIGHT_CAPACITY)`` — a tracer that itself only
retains the most recent events — instead of a full unbounded tracer.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ObserveError
from repro.kernel.sim import SimObserver
from repro.telemetry.export import event_from_dict, event_to_dict
from repro.telemetry.events import TraceEvent

#: Schema tag in every dump header; stale artifacts fail loudly.
FLIGHT_SCHEMA_VERSION = 1

#: Environment knob: when set, flight dumps are written below this
#: directory (the engine's job-failure path and ``run_schedule`` both
#: honour it).  Unset means in-memory dumps only.
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"

#: Dump header discriminator.
DUMP_KIND = "flight-recorder"

#: Trace events a dump keeps: the recorder's ring depth, and the ring an
#: engine job records into when ``REPRO_FLIGHT_DIR`` is set.
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
    """Parse a dump from JSONL text or a file path."""
    if isinstance(source, Path) or (
        isinstance(source, str) and "\n" not in source and os.path.exists(source)
    ):
        text = Path(source).read_text()
    else:
        text = str(source)
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ObserveError("flight dump is empty")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("kind") != DUMP_KIND:
        raise ObserveError("not a flight-recorder dump (missing header)")
    if header.get("schema") != FLIGHT_SCHEMA_VERSION:
        raise ObserveError(
            f"flight dump schema {header.get('schema')!r} != {FLIGHT_SCHEMA_VERSION}"
        )
    events = [event_from_dict(json.loads(line)) for line in lines[1:]]
    return FlightDump(header=header, events=events)


def is_flight_dump(path: Union[str, Path]) -> bool:
    """Cheap check: does the file start with a flight-recorder header?"""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline()
        return json.loads(first).get("kind") == DUMP_KIND
    except (OSError, ValueError, AttributeError):
        return False


class FlightRecorder(SimObserver):
    """Last-N-events post-mortem recorder for one machine."""

    def __init__(
        self,
        machine: Optional[Any] = None,
        *,
        capacity: int = FLIGHT_CAPACITY,
        dump_dir: Optional[Union[str, Path]] = None,
        record_crashes: bool = False,
        max_dumps: int = 16,
    ) -> None:
        if capacity < 1:
            raise ObserveError("flight recorder capacity must be at least 1")
        self.capacity = capacity
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.record_crashes = record_crashes
        self.max_dumps = max_dumps
        #: Extra JSON-safe header payload (e.g. the fuzz schedule that
        #: makes a dump replayable); callers fill it before the run.
        self.context: Dict[str, Any] = {}
        #: Paths of dumps written to ``dump_dir`` (in order).
        self.dump_paths: List[Path] = []
        #: The most recent dump's JSONL text (kept even with no dir).
        self.last_dump: Optional[str] = None
        self.machine: Optional[Any] = None
        if machine is not None:
            self.install(machine)

    # -- lifecycle ---------------------------------------------------------------

    def install(self, machine: Any) -> "FlightRecorder":
        """Bind to ``machine`` and attach to its simulator's observers."""
        self.machine = machine
        machine.simulator.attach(self)
        return self

    def uninstall(self) -> None:
        """Unbind from the machine (no-op when not installed)."""
        if self.machine is not None:
            self.machine.simulator.detach(self)
            self.machine = None

    # -- ring access -------------------------------------------------------------

    def tail_events(self) -> List[TraceEvent]:
        """The last ``capacity`` trace events the machine recorded."""
        if self.machine is None:
            return []
        events = self.machine.telemetry.tracer.events
        return list(events[-self.capacity:])

    # -- failure hooks -----------------------------------------------------------

    def on_violation(self, violation: Any) -> Optional[Path]:
        """Called by the invariant checker just before it raises."""
        return self.record("invariant-violation", violation=violation)

    def on_crash(self, machine: Any) -> Optional[Path]:
        """Called by ``Machine.reboot`` on a machine-check recovery."""
        if not self.record_crashes:
            return None
        return self.record("machine-check")

    def on_error(self, error: BaseException) -> Optional[Path]:
        """Record an unhandled exception escaping the run."""
        return self.record("unhandled-exception", error=error)

    # -- dump production ---------------------------------------------------------

    def make_dump(
        self,
        reason: str,
        *,
        violation: Optional[Any] = None,
        error: Optional[BaseException] = None,
    ) -> str:
        """The JSONL artifact text for the current ring state."""
        machine = self.machine
        return _dump_text(
            reason,
            self.tail_events(),
            capacity=self.capacity,
            sim_time_s=machine.now if machine is not None else 0.0,
            crash_count=getattr(machine, "crash_count", 0),
            machine=(
                machine.spec_fingerprint()
                if machine is not None and hasattr(machine, "spec_fingerprint")
                else None
            ),
            violation=violation,
            error=error,
            context=dict(sorted(self.context.items())) or None,
        )

    def record(
        self,
        reason: str,
        *,
        violation: Optional[Any] = None,
        error: Optional[BaseException] = None,
    ) -> Optional[Path]:
        """Produce a dump; write it to ``dump_dir`` when one is set.

        Returns the written path (``None`` with no directory or once
        ``max_dumps`` is reached — the text still lands in
        :attr:`last_dump` either way).
        """
        text = self.make_dump(reason, violation=violation, error=error)
        self.last_dump = text
        if self.dump_dir is None or len(self.dump_paths) >= self.max_dumps:
            return None
        path = _write_dump(
            self.dump_dir, f"flight-{reason}-{len(self.dump_paths):03d}.jsonl", text
        )
        self.dump_paths.append(path)
        return path


def _dump_text(
    reason: str,
    events: List[TraceEvent],
    *,
    capacity: int,
    context: Optional[Dict[str, Any]],
    sim_time_s: float = 0.0,
    crash_count: Optional[int] = None,
    machine: Optional[Dict[str, Any]] = None,
    violation: Optional[Any] = None,
    error: Optional[BaseException] = None,
) -> str:
    """A dump's JSONL text: the header line, then one line per event.

    ``violation`` is anything with ``to_dict()``.
    """
    header: Dict[str, Any] = {
        "kind": DUMP_KIND,
        "schema": FLIGHT_SCHEMA_VERSION,
        "reason": reason,
        "capacity": capacity,
        "events": len(events),
        "sim_time_s": sim_time_s,
        "crash_count": crash_count,
        "machine": machine,
        "violation": violation.to_dict() if violation is not None else None,
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
    return "\n".join(lines) + "\n"


def _write_dump(directory: Path, name: str, text: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(text)
    return path


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
    Writes below ``dump_dir`` or ``REPRO_FLIGHT_DIR``; returns ``None``
    (and writes nothing) when neither is set.
    """
    directory = Path(dump_dir) if dump_dir is not None else flight_dir_from_env()
    if directory is None:
        return None
    fingerprint = job.fingerprint()
    text = _dump_text(
        "quarantined-job",
        [],
        capacity=0,
        violation=error if hasattr(error, "to_dict") else None,
        error=error,
        context={
            "job": {
                "kind": job.kind,
                "fingerprint": fingerprint,
                "seed_path": list(job.seed_path()),
            },
            "attempts": attempts,
        },
    )
    return _write_dump(
        directory, f"quarantine-{fingerprint[:12]}.flight.jsonl", text
    )


def dump_job_failure(
    job: Any,
    telemetry: Any,
    error: BaseException,
    *,
    capacity: int = FLIGHT_CAPACITY,
    dump_dir: Optional[Union[str, Path]] = None,
) -> Optional[Path]:
    """Write a flight dump for an exception escaping an engine job.

    Called from the worker entry point, where no machine handle is in
    scope — the post-mortem ring is the job's own telemetry tracer and
    the identity is the job's fingerprint.  Writes below ``dump_dir`` or
    the ``REPRO_FLIGHT_DIR`` directory; returns ``None`` (and writes
    nothing) when neither is set.
    """
    directory = Path(dump_dir) if dump_dir is not None else flight_dir_from_env()
    if directory is None:
        return None
    events = list(telemetry.tracer.events)[-capacity:]
    fingerprint = job.fingerprint()
    text = _dump_text(
        "unhandled-exception",
        events,
        capacity=capacity,
        sim_time_s=events[-1].time_s if events else 0.0,
        violation=error if hasattr(error, "to_dict") else None,
        error=error,
        context={"job": {"kind": job.kind, "fingerprint": fingerprint}},
    )
    return _write_dump(directory, f"job-{fingerprint[:12]}.flight.jsonl", text)

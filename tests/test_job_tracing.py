"""Engine jobs record trace events only for the flight recorder.

A job's trace events have one reader: the failure dump ``execute_job``
writes when ``REPRO_FLIGHT_DIR`` is set, which keeps the last
``FLIGHT_CAPACITY`` of them.  So a job runs under the null tracer when
the variable is unset and under a ``FLIGHT_CAPACITY``-deep ring when it
is set.  Neither state may change what a job returns, and the ring must
dump the same bytes an unbounded tracer would.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Tuple

import pytest

from repro.core.characterization import CharacterizationConfig
from repro.cpu import COMET_LAKE
from repro.engine import jobs as jobs_module
from repro.engine.jobs import (
    AttackCampaignJob,
    BatchCharacterizationJob,
    ExploreInjectionJob,
    ExplorePointJob,
    FuzzJob,
    JobSpec,
    OverheadJob,
    execute_job,
)
from repro.observe.flight import (
    FLIGHT_CAPACITY,
    FLIGHT_DIR_ENV,
    dump_job_failure,
    load_flight_dump,
)
from repro.telemetry import Telemetry
from repro.telemetry.events import NULL_TRACER

#: The ``JobResult`` fields that must not depend on the tracer.
RESULT_FIELDS = ("payload", "counters", "histograms", "gauges", "spans")

COARSE = CharacterizationConfig(
    offset_start_mv=-10, offset_stop_mv=-250, offset_step_mv=10
)


@pytest.fixture(scope="module")
def jobs(comet_characterization) -> Dict[str, JobSpec]:
    """One job of every kind, small enough to run twice per test."""
    unsafe_json = json.dumps(
        comet_characterization.unsafe_states.to_dict(), sort_keys=True
    )
    base = COMET_LAKE.frequency_table.base_ghz
    attack = dict(codename=COMET_LAKE.codename, seed=11, frequency_ghz=base)
    return {
        "characterization-batch": BatchCharacterizationJob(
            codename=COMET_LAKE.codename,
            frequencies_ghz=(0.8, 2.0, 3.4),
            config=COARSE,
            seed=5,
        ),
        "plundervolt-open": AttackCampaignJob(
            attack="plundervolt", protected=False, **attack
        ),
        "plundervolt-protected": AttackCampaignJob(
            attack="plundervolt", protected=True, unsafe_json=unsafe_json, **attack
        ),
        "aes-dfa-open": AttackCampaignJob(attack="aes-dfa", protected=False, **attack),
        "aes-dfa-protected": AttackCampaignJob(
            attack="aes-dfa", protected=True, unsafe_json=unsafe_json, **attack
        ),
        "table2-overhead": OverheadJob(
            codename=COMET_LAKE.codename, seed=3, unsafe_json=unsafe_json
        ),
        "explore-point": ExplorePointJob(
            codename=COMET_LAKE.codename,
            points=((2.0, -100), (2.0, -250)),
            protect=True,
            seed=5,
            unsafe_json=unsafe_json,
        ),
        "explore-injection": ExploreInjectionJob(
            key_bits=128,
            key_seed=42,
            message=0xDEADBEEF,
            reps=((0, "flip:0"), (3, "zero")),
        ),
        "fuzz": FuzzJob(
            codename=COMET_LAKE.codename,
            seed=5,
            case_index=0,
            unsafe_json=unsafe_json,
        ),
    }


@pytest.fixture
def made(monkeypatch) -> List[Telemetry]:
    """Every telemetry handle ``execute_job`` builds, in order."""
    handles: List[Telemetry] = []

    def record(**kwargs: Any) -> Telemetry:
        handles.append(Telemetry(**kwargs))
        return handles[-1]

    monkeypatch.setattr(jobs_module, "Telemetry", record)
    return handles


@pytest.mark.parametrize(
    "name",
    [
        "characterization-batch",
        "plundervolt-open",
        "plundervolt-protected",
        "aes-dfa-open",
        "aes-dfa-protected",
        "table2-overhead",
        "explore-point",
        "explore-injection",
        "fuzz",
    ],
)
def test_results_identical_with_and_without_flight_dir(
    name, jobs, made, tmp_path, monkeypatch
):
    job = jobs[name]
    monkeypatch.delenv(FLIGHT_DIR_ENV, raising=False)
    untraced = execute_job(job)
    assert made[-1].tracer is NULL_TRACER
    assert made[-1].registry.enabled

    monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
    traced = execute_job(job)
    tracer = made[-1].tracer
    assert tracer is not NULL_TRACER
    assert tracer.max_events == FLIGHT_CAPACITY
    assert len(tracer) <= FLIGHT_CAPACITY

    for field in RESULT_FIELDS:
        assert getattr(traced, field) == getattr(untraced, field), field
    assert list(tmp_path.iterdir()) == []


def test_simulating_jobs_fill_the_ring(jobs, made, tmp_path, monkeypatch):
    # Control for the identity test: the traced state really traces.
    monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
    execute_job(jobs["table2-overhead"])
    assert len(made[-1].tracer) == FLIGHT_CAPACITY


#: Emission rounds of :class:`_ChattyBoomJob`; three events each, so the
#: job overflows the ring several times over.
CHATTY_ROUNDS = FLIGHT_CAPACITY


def _emit(tracer) -> None:
    for step in range(CHATTY_ROUNDS):
        now = step * 1e-6
        tracer.instant("chatty.step", "test", now, track="sim", step=step)
        tracer.complete("chatty.span", "test", now, 5e-7, track="core0", step=step)
        tracer.counter_sample("chatty.level", "test", now, float(step), track="core0")


@dataclass(frozen=True)
class _ChattyBoomJob(JobSpec):
    """A job that traces far past the ring and then dies."""

    kind: ClassVar[str] = "chatty-boom"

    seed: int = 0

    def seed_path(self) -> Tuple[str, ...]:
        return ("chatty-boom",)

    def run(self, telemetry: Any) -> Any:
        if telemetry.tracer.enabled:
            _emit(telemetry.tracer)
        raise RuntimeError("worker exploded after a long trace")


def test_failure_dump_equals_the_unbounded_tail(tmp_path, monkeypatch):
    ring_dir = tmp_path / "ring"
    monkeypatch.setenv(FLIGHT_DIR_ENV, str(ring_dir))
    job = _ChattyBoomJob()
    with pytest.raises(RuntimeError) as excinfo:
        execute_job(job)
    (dump_path,) = ring_dir.glob("job-*.flight.jsonl")

    unbounded = Telemetry()
    _emit(unbounded.tracer)
    assert len(unbounded.tracer) > FLIGHT_CAPACITY
    reference = dump_job_failure(
        job, unbounded, excinfo.value, dump_dir=tmp_path / "unbounded"
    )
    assert dump_path.read_bytes() == reference.read_bytes()
    dump = load_flight_dump(dump_path)
    assert dump.events == list(unbounded.tracer.events[-FLIGHT_CAPACITY:])


"""Sec. 4.3 claim: the polling module completely eliminates DVFS faults.

Re-runs the published attack campaigns (imul, Plundervolt RSA-CRT,
V0LTpwn, AES-DFA) against undefended and protected machines on all three
CPU generations via :func:`repro.experiments.prevention_matrix` and
tabulates faults, crashes and attack success — the reproduction of "our
countermeasure completely prevents DVFS faults on three Intel generation
CPUs".

The campaigns' speed is recorded beside the claim: ``windows_per_s`` is
the fault windows the matrix executed (the session's ``faults.windows``
counter) per second of its wall time, gated against
``benchmarks/trajectories/BENCH_prevention.json`` by ``repro trajectory
check`` in the registry-gate workflow.
"""

from __future__ import annotations

import json
import time

from repro.analysis.report import render_table
from repro.engine import EngineSession, SerialExecutor
from repro.engine.cache import ResultCache
from repro.experiments import (
    PREVENTION_AES_KEY,
    PREVENTION_RSA_KEY,
    prevention_matrix,
)

from conftest import record_trajectory, write_artifact


def test_prevention_all_cpus(
    benchmark,
    skylake_characterization,
    kabylake_characterization,
    comet_characterization,
):
    # The characterization fixtures warm the sweeps the jobs carry, so
    # the timed matrix is attack campaigns only; a fresh session with a
    # cold memory cache makes every campaign execute.
    session = EngineSession(
        executor=SerialExecutor(), cache=ResultCache(), registry=None
    )
    start = time.perf_counter()
    matrix = benchmark.pedantic(
        prevention_matrix, kwargs={"session": session}, rounds=1, iterations=1
    )
    seconds = time.perf_counter() - start
    windows = session.counters().get("faults.windows", 0)
    windows_per_s = windows / seconds
    rendered = [
        (
            cell.codename,
            "polling" if cell.protected else "none",
            cell.outcome.attack,
            cell.outcome.faults_observed,
            cell.outcome.crashes,
            "yes" if cell.outcome.succeeded else "no",
        )
        for cell in matrix.cells
    ]
    write_artifact(
        "prevention_matrix.txt",
        render_table(
            ["CPU", "defense", "attack", "faults", "crashes", "succeeded"],
            rendered,
            title="Attack campaigns vs the polling countermeasure (Sec. 4.3)",
        ),
    )
    write_artifact(
        "prevention.json",
        json.dumps(
            {
                "protected_faults": matrix.protected_faults,
                "fault_windows": windows,
                "matrix_seconds": seconds,
                "windows_per_s": windows_per_s,
            },
            indent=2,
            sort_keys=True,
        ),
    )
    record_trajectory(
        "prevention",
        "windows_per_s",
        windows_per_s,
        unit="1/s",
        lower_is_better=False,
        context={"fault_windows": windows},
    )
    assert windows > 0, "the matrix executed no fault windows"
    # Claims: every attack injects faults on the undefended machine and
    # achieves nothing — zero faults, zero crashes — under polling.
    assert matrix.protected_faults == 0
    for cell in matrix.outcomes(protected=True):
        assert cell.outcome.crashes == 0, (cell.codename, cell.outcome.attack)
        assert not cell.outcome.succeeded, (cell.codename, cell.outcome.attack)
    for codename in ("Sky Lake", "Kaby Lake R", "Comet Lake"):
        by_name = {
            c.outcome.attack: c.outcome
            for c in matrix.outcomes(codename=codename, protected=False)
        }
        assert by_name["imul-campaign"].faults_observed > 0, codename
        pv = by_name["plundervolt"]
        assert pv.succeeded and pv.recovered_secret == tuple(
            sorted((PREVENTION_RSA_KEY.p, PREVENTION_RSA_KEY.q))
        ), codename
        assert by_name["v0ltpwn"].succeeded, codename
        if "aes-dfa" in by_name:
            aes = by_name["aes-dfa"]
            assert aes.succeeded and aes.recovered_secret == PREVENTION_AES_KEY

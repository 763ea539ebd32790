"""Engine acceptance: process-pool sharding reproduces the serial sweep.

Runs the full three-model Figs. 2-4 characterization once through the
``SerialExecutor`` and once sharded across a four-worker
``ParallelExecutor`` and asserts the folded results are byte-identical —
the engine's core contract.  On machines with at least four CPUs the
pool run must also be at least twice as fast; single-core CI boxes skip
the speedup assertion (the parity assertion always runs).  The merged
per-worker telemetry counters and the timing comparison are written to
``benchmarks/results/engine_campaign.json``.
"""

from __future__ import annotations

import json
import os
import pickle
import time

from repro.core.characterization import CharacterizationConfig
from repro.cpu import PAPER_MODEL_TUPLE
from repro.engine import (
    CharacterizationJob,
    EngineSession,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
)

from conftest import write_artifact

WORKERS = 4


def _sweep_all(session: EngineSession) -> list:
    # The workload is the scalar row jobs (the identity oracle, one job
    # per frequency): this bench's contract is executor parity and the
    # >=2x pool speedup over many small jobs.  Production sweeps run as
    # vectorized batch shards (fewer, fatter jobs), which have their own
    # acceptance bench in test_bench_characterization_vector.py.
    results = []
    for model in PAPER_MODEL_TUPLE:
        sweep = CharacterizationJob(
            codename=model.codename, config=CharacterizationConfig(), seed=5
        )
        results.append(sweep.fold(session.run_jobs(sweep.row_jobs(), cache=False)))
    return results


def test_engine_parallel_parity_and_speedup(benchmark):
    serial = EngineSession(executor=SerialExecutor(), cache=ResultCache())
    start = time.perf_counter()
    serial_results = benchmark.pedantic(
        _sweep_all, args=(serial,), rounds=1, iterations=1
    )
    serial_s = time.perf_counter() - start

    with EngineSession(
        executor=ParallelExecutor(WORKERS), cache=ResultCache()
    ) as parallel:
        start = time.perf_counter()
        parallel_results = _sweep_all(parallel)
        parallel_s = time.perf_counter() - start
        parallel_counters = parallel.counters()

    # The engine contract: sharding across worker processes reproduces
    # the serial characterization byte for byte, per model.
    for model, a, b in zip(PAPER_MODEL_TUPLE, serial_results, parallel_results):
        assert pickle.dumps(a) == pickle.dumps(b), model.codename

    # Per-worker telemetry counters merge back into the session registry
    # identically to the serial fold.
    serial_counters = serial.counters()
    assert serial_counters["faults.windows"] > 0
    for name in ("faults.windows", "faults.injected", "engine.jobs_executed"):
        assert serial_counters.get(name) == parallel_counters.get(name), name

    cpus = os.cpu_count() or 1
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    write_artifact(
        "engine_campaign.json",
        json.dumps(
            {
                "workers": WORKERS,
                "cpu_count": cpus,
                "serial_seconds": serial_s,
                "parallel_seconds": parallel_s,
                "speedup": speedup,
                "serial_counters": serial_counters,
                "parallel_counters": parallel_counters,
                "serial_engine": serial.describe(),
            },
            indent=2,
            sort_keys=True,
        ),
    )
    # The >=2x claim needs real parallelism; on smaller boxes the parity
    # assertions above are the acceptance test and the artifact records
    # the (meaningless) single-core timing.
    if cpus >= WORKERS:
        assert speedup >= 2.0, (
            f"expected >=2x speedup with {WORKERS} workers on {cpus} CPUs, "
            f"got {speedup:.2f}x"
        )

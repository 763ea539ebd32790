"""Vector fast-path acceptance: >=10x sweep throughput, byte-identical.

Runs the boundary-tightening three-model characterization campaign
(``repetitions=3``: each cell samples three EXECUTE windows, the knob the
config documents for shrinking the ~e^-1 odds a near-onset cell reads
zero faults) once through the scalar oracle and once through the
vectorized evaluator, asserts the folded results are byte-identical, and
records the measured speedup.

The in-test floor is deliberately lenient (CI boxes are noisy); the real
gate is the committed baseline in
``benchmarks/trajectories/BENCH_characterization_vector.json`` checked by
``repro trajectory check`` in the registry-gate workflow.  Both paths'
kernel profiles are captured alongside the timing: the scalar "before"
profile is one opaque ``run_row.scalar`` bucket (the committed fixture
``benchmarks/profiles/BEFORE_characterization_scalar.collapsed.txt``
pins its shape), the batch "after" profile breaks the same work into the
``vector.delay`` / ``vector.safety`` / ``vector.fault_draw`` sites.
"""

from __future__ import annotations

import json
import pickle
import time
from pathlib import Path

from repro.core.characterization import CharacterizationConfig, CharacterizationFramework
from repro.cpu import PAPER_MODEL_TUPLE
from repro.observe.profiler import SimProfiler
from repro.vector.profile import profiled_kernels

from conftest import write_artifact

#: The committed "before" profile fixture (regenerated by this bench).
BEFORE_FIXTURE = Path(__file__).parent / "profiles" / (
    "BEFORE_characterization_scalar.collapsed.txt"
)

#: Full Figs. 2-4 grid with three EXECUTE windows per cell.
CONFIG = CharacterizationConfig(repetitions=3)

#: CI floor: far below the recorded ~10x so scheduler noise cannot flake
#: the bench; the trajectory gate holds the committed baseline.
MIN_SPEEDUP = 2.0


def _scalar_sweep(model):
    """The scalar oracle: every ``run_row`` folded in frequency order."""
    framework = CharacterizationFramework(model, config=CONFIG, seed=5)
    result = framework.empty_result()
    for frequency in CONFIG.frequency_list(model):
        framework.fold_row(result, framework.run_row(frequency))
    return result


def _vector_sweep(model):
    return CharacterizationFramework(model, config=CONFIG, seed=5).run()


def _sweep_all(sweep, *, profiler: SimProfiler):
    with profiled_kernels(profiler):
        return [sweep(model) for model in PAPER_MODEL_TUPLE]


def test_vector_sweep_identity_and_speedup(benchmark):
    scalar_profiler = SimProfiler()
    start = time.perf_counter()
    scalar_results = _sweep_all(_scalar_sweep, profiler=scalar_profiler)
    scalar_s = time.perf_counter() - start

    batch_profiler = SimProfiler()
    start = time.perf_counter()
    batch_results = benchmark.pedantic(
        _sweep_all,
        args=(_vector_sweep,),
        kwargs={"profiler": batch_profiler},
        rounds=1,
        iterations=1,
    )
    batch_s = time.perf_counter() - start

    # The admissibility contract: the fast path reproduces the scalar
    # oracle byte for byte, per model.
    for model, scalar, batch in zip(PAPER_MODEL_TUPLE, scalar_results, batch_results):
        assert pickle.dumps(scalar.cells) == pickle.dumps(batch.cells), model.codename
        assert scalar.unsafe_states.to_dict() == batch.unsafe_states.to_dict()
        assert scalar.crashes == batch.crashes

    speedup = scalar_s / batch_s if batch_s > 0 else float("inf")
    cells = sum(len(result.cells) for result in scalar_results)

    # Before/after collapsed kernel profiles (event counts deterministic).
    scalar_collapsed = scalar_profiler.to_collapsed()
    batch_collapsed = batch_profiler.to_collapsed()
    write_artifact("characterization_scalar.collapsed.txt", scalar_collapsed.rstrip())
    write_artifact("characterization_vector.collapsed.txt", batch_collapsed.rstrip())
    # The scalar profile must still be the single opaque bucket the
    # committed fixture records — same shape, same cell total.
    assert scalar_collapsed == BEFORE_FIXTURE.read_text()
    for site in ("vector.delay", "vector.safety", "vector.fault_draw"):
        assert f"vector;{site} " in batch_collapsed

    write_artifact(
        "characterization_vector.json",
        json.dumps(
            {
                "config": {"repetitions": CONFIG.repetitions},
                "models": [m.codename for m in PAPER_MODEL_TUPLE],
                "cells": cells,
                "scalar_seconds": scalar_s,
                "batch_seconds": batch_s,
                "speedup": speedup,
                "scalar_cells_per_second": cells / scalar_s,
                "batch_cells_per_second": cells / batch_s,
            },
            indent=2,
            sort_keys=True,
        ),
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized sweep only {speedup:.2f}x faster than the scalar "
        f"oracle (floor {MIN_SPEEDUP}x; committed baseline ~10x)"
    )

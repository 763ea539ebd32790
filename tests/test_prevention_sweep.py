"""Sec. 4.3 prevention claim over a seed sweep.

The attack matrix (imul, Plundervolt, V0LTpwn, VoltJockey and AES-DFA
against undefended and polling-protected machines on all three CPUs)
runs at seeds 1-20, each in a fresh serial session with no registry, so
the result does not depend on any cache.  Every protected cell must see
zero faults; the open-cell success count is reported per seed (as the
``open_cells_succeeded`` test property) rather than asserted away.
"""

from __future__ import annotations

import pytest

from repro.engine import EngineSession, SerialExecutor
from repro.engine.cache import ResultCache
from repro.experiments import prevention_matrix

SEEDS = range(1, 21)


@pytest.mark.parametrize("seed", SEEDS)
def test_protected_cells_see_no_faults(seed, record_property):
    session = EngineSession(
        executor=SerialExecutor(), cache=ResultCache(), registry=None
    )
    matrix = prevention_matrix(seed=seed, session=session)
    open_cells = matrix.outcomes(protected=False)
    succeeded = sum(cell.outcome.succeeded for cell in open_cells)
    record_property("open_cells_succeeded", f"{succeeded}/{len(open_cells)}")
    print(f"seed {seed}: {succeeded}/{len(open_cells)} open cells succeeded")
    assert matrix.protected_faults == 0
    for cell in matrix.outcomes(protected=True):
        assert cell.outcome.faults_observed == 0, (cell.codename, cell.outcome.attack)
        assert not cell.outcome.succeeded, (cell.codename, cell.outcome.attack)

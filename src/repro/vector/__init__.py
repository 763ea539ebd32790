"""Vectorized batch-simulation core: the numpy fast path.

``repro.vector`` evaluates the fault physics every fault-space sweep
reduces to — the effective supply voltage under an offset, the Eq. 3
violated fraction and the probabilistic fault draw — over arrays of
operating points per call instead of one scalar object pipeline per
point.  The timing physics (Eq. 1-3: delay model, timing budget,
critical voltage) has one implementation, the scalar one in
``repro.timing``: the kernels read the per-frequency critical voltage
from the cached ``FaultModel.critical_voltage``.  The scalar
implementations in ``repro.timing`` / ``repro.faults`` are the
byte-identity **oracle**: ``tests/test_vector_identity.py`` proves the
batch row evaluator bit-identical to the scalar one, and
``tests/test_vector_kernels.py`` checks each kernel pointwise.  Every
production characterization sweep runs here; the scalar row evaluator
is reached only from tests.

Layout:

* :mod:`repro.vector.kernels` — grid kernels over the fault model: the
  row evaluator's :func:`effective_voltage_grid` / :func:`fault_grid`
  and the explorer's tier-1 prune, :func:`explore_feasibility_grid`;
* :mod:`repro.vector.characterization` — the vectorized Algo 2 row
  evaluator (:func:`run_row_batch`);
* :mod:`repro.vector.profile` — the out-of-band profiler hook that
  attributes batch-kernel time to ``vector.delay`` / ``vector.safety`` /
  ``vector.fault_draw`` sites.
"""

from repro.vector.characterization import MAX_RECORDED_EVENTS, run_row_batch
from repro.vector.kernels import (
    FaultGrid,
    FeasibilityGrid,
    effective_voltage_grid,
    explore_feasibility_grid,
    fault_grid,
    phi_grid,
    violated_fraction_grid,
)
from repro.vector.profile import (
    kernel_profiler,
    profiled_kernels,
    record_kernel_site,
)

__all__ = [
    "FaultGrid",
    "FeasibilityGrid",
    "MAX_RECORDED_EVENTS",
    "effective_voltage_grid",
    "explore_feasibility_grid",
    "fault_grid",
    "kernel_profiler",
    "phi_grid",
    "profiled_kernels",
    "record_kernel_site",
    "run_row_batch",
    "violated_fraction_grid",
]

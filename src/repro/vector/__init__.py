"""Vectorized batch-simulation core: the numpy fast path.

``repro.vector`` evaluates the three pure functions every fault-space
sweep reduces to — the alpha-power-law delay model, the Eq. 1-3
safe-state predicates and the probabilistic fault draw — over arrays of
operating points per call instead of one scalar object pipeline per
point.  The scalar implementations in ``repro.timing`` / ``repro.faults``
remain the byte-identity **oracle**: every kernel here is proven
bit-identical against them by the fuzz suite in
``tests/test_vector_identity.py``.  Every production characterization
sweep runs here; the scalar row evaluator is reached only from tests.

Layout:

* :mod:`repro.vector.kernels` — masked grid kernels over the timing and
  fault physics (sub-threshold points become ``NaN``/``unsafe`` instead
  of per-point ``ConfigurationError``);
* :mod:`repro.vector.characterization` — the vectorized Algo 2 row
  evaluator (:func:`run_row_batch`);
* :mod:`repro.vector.profile` — the out-of-band profiler hook that
  attributes batch-kernel time to ``vector.delay`` / ``vector.safety`` /
  ``vector.fault_draw`` sites.
"""

from repro.vector.characterization import MAX_RECORDED_EVENTS, run_row_batch
from repro.vector.kernels import (
    BudgetGrid,
    FaultGrid,
    FeasibilityGrid,
    MaskedGrid,
    SafetyGrid,
    crash_voltage_grid,
    critical_voltage_grid,
    effective_voltage_grid,
    explore_feasibility_grid,
    fault_grid,
    path_delay_grid,
    phi_grid,
    pow_elementwise,
    raw_delay_grid,
    safety_grid,
    scale_grid,
    timing_budget_grid,
    violated_fraction_grid,
    voltage_for_delay_grid,
    voltage_for_scale_grid,
)
from repro.vector.profile import (
    kernel_profiler,
    profiled_kernels,
    record_kernel_site,
)

__all__ = [
    "BudgetGrid",
    "FaultGrid",
    "FeasibilityGrid",
    "MAX_RECORDED_EVENTS",
    "MaskedGrid",
    "SafetyGrid",
    "crash_voltage_grid",
    "critical_voltage_grid",
    "effective_voltage_grid",
    "explore_feasibility_grid",
    "fault_grid",
    "kernel_profiler",
    "path_delay_grid",
    "phi_grid",
    "pow_elementwise",
    "profiled_kernels",
    "raw_delay_grid",
    "record_kernel_site",
    "run_row_batch",
    "safety_grid",
    "scale_grid",
    "timing_budget_grid",
    "violated_fraction_grid",
    "voltage_for_delay_grid",
    "voltage_for_scale_grid",
]

"""The faultable ``imul`` loop — payload of the EXECUTE thread (Sec. 4.2).

The paper's characterization runs "a tight loop of one million iterations
of ``imul`` instructions with varying 64-bit operands"; a fault is an
``imul`` result differing from the result under nominal conditions.  We
reproduce that: operands vary per iteration, the architecturally correct
64-bit product is computed in Python, and the fault injector flips bits in
it according to the margin model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector, WindowOutcome
from repro.faults.margin import OperatingConditions

_MASK64 = (1 << 64) - 1

#: Iteration count used throughout the paper's characterization.
DEFAULT_ITERATIONS = 1_000_000

#: Approximate cycles per retired ``imul`` in a tight dependency-free loop.
IMUL_CYCLES_PER_OP = 1.0


@dataclass(frozen=True)
class ImulFault:
    """One observed incorrect multiplication."""

    iteration: int
    lhs: int
    rhs: int
    expected: int
    observed: int
    flipped_bit: int


@dataclass(frozen=True)
class ImulRunReport:
    """Outcome of one EXECUTE-thread window."""

    iterations: int
    fault_count: int
    crashed: bool
    conditions: OperatingConditions
    faults: Tuple[ImulFault, ...]

    @property
    def faulted(self) -> bool:
        """Whether any multiplication produced a wrong result."""
        return self.fault_count > 0


class ImulLoop:
    """EXECUTE-thread payload: N ``imul`` iterations with varying operands."""

    instruction = "imul"

    def __init__(self, iterations: int = DEFAULT_ITERATIONS) -> None:
        if iterations <= 0:
            raise ConfigurationError("iterations must be positive")
        self.iterations = iterations

    def duration_s(self, frequency_ghz: float) -> float:
        """Wall time of the loop at a core frequency."""
        cycles = self.iterations * IMUL_CYCLES_PER_OP
        return cycles / (frequency_ghz * 1e9)

    def run(
        self,
        injector: FaultInjector,
        conditions: OperatingConditions,
        *,
        iterations: int | None = None,
    ) -> ImulRunReport:
        """Execute the loop at fixed conditions and report faults.

        Raises
        ------
        MachineCheckError
            If the conditions lie beyond the crash boundary (propagated
            from the injector; the characterization framework records the
            cell as a crash and reboots).
        """
        count = self.iterations if iterations is None else iterations
        outcome: WindowOutcome = injector.run_window(
            conditions, count, instruction=self.instruction
        )
        faults = []
        if outcome.events:
            # Operands only matter where a fault landed; most windows
            # have none and never seed the operand generator.
            rng = np.random.default_rng(
                abs(hash((count, conditions.offset_mv))) % (2**32)
            )
            for event in outcome.events:
                lhs = int(rng.integers(0, 1 << 62)) | 1
                rhs = int(rng.integers(0, 1 << 62)) | 1
                expected = (lhs * rhs) & _MASK64
                observed = expected ^ (1 << event.flipped_bit)
                faults.append(
                    ImulFault(
                        iteration=event.op_index,
                        lhs=lhs,
                        rhs=rhs,
                        expected=expected,
                        observed=observed,
                        flipped_bit=event.flipped_bit,
                    )
                )
        return ImulRunReport(
            iterations=count,
            fault_count=outcome.fault_count,
            crashed=outcome.crashed,
            conditions=conditions,
            faults=tuple(faults),
        )

"""The safe/unsafe state characterization result (Sec. 3.3 / 4.2).

An *unsafe state* is a (core frequency, core voltage offset) pair at which
DVFS faults occur (Eq. 3); the set of such pairs is what Algo 2 builds and
what the polling countermeasure (Algo 3) consults on every iteration.

:class:`UnsafeStateSet` stores the characterized cells and derives the
quantities the countermeasure needs:

* the per-frequency **boundary** — the shallowest (least negative) offset
  observed to fault at that frequency;
* a per-frequency **safe restore target** with a configurable margin;
* the **maximal safe state** (Sec. 5) — the deepest offset that is safe at
  *every* frequency of the spectrum, enabling the microcode and MSR-level
  deployments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import CharacterizationError, ConfigurationError
from repro.units import ratio_to_ghz

#: Default back-off (mV) applied above an *observed* fault boundary when
#: deriving a safe restore target.  The empirical boundary is a stochastic
#: estimate: cells a few mV shallower than the first observed fault may
#: simply have sampled zero faults in one million iterations, so a thin
#: margin can leave the restored state marginally faulty.  Fifteen
#: millivolts (~1.5 sigma of the per-path spread) puts the restore target
#: comfortably above the fault onset.
DEFAULT_SAFETY_MARGIN_MV = 15.0


def _freq_key(frequency_ghz: float) -> int:
    """Quantize a frequency to the 0.1 GHz grid used by Algo 2."""
    return int(round(frequency_ghz * 10))


@dataclass(frozen=True)
class CellResult:
    """Outcome of probing one (frequency, offset) cell."""

    frequency_ghz: float
    offset_mv: int
    fault_count: int
    crashed: bool

    @property
    def is_unsafe(self) -> bool:
        """Whether the cell showed faults or crashed the machine."""
        return self.crashed or self.fault_count > 0


@dataclass
class UnsafeStateSet:
    """Characterized unsafe (frequency, voltage-offset) pairs for a system.

    Offsets are negative millivolt integers (undervolts), matching the
    paper's search space ``V = {-1, -2, ..., -300}``.
    """

    system: str = "unknown"
    _unsafe: Dict[int, set] = field(default_factory=dict, repr=False)
    _crash: Dict[int, set] = field(default_factory=dict, repr=False)

    #: Bumped by every mutation, so a consumer that memoizes verdicts (the
    #: polling module) can tell the set changed under it.  It is not a
    #: field: equality, :meth:`to_dict` and the pickled state leave it
    #: out, so payload bytes do not depend on how a set was built.
    revision = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("revision", None)
        return state

    # -- construction --------------------------------------------------------

    def add_unsafe(self, frequency_ghz: float, offset_mv: int) -> None:
        """Record a faulting cell (Algo 2, line 16)."""
        self._unsafe.setdefault(_freq_key(frequency_ghz), set()).add(int(offset_mv))
        self.revision += 1

    def add_crash(self, frequency_ghz: float, offset_mv: int) -> None:
        """Record a crash cell (also unsafe — maximally so)."""
        key = _freq_key(frequency_ghz)
        self._crash.setdefault(key, set()).add(int(offset_mv))
        self._unsafe.setdefault(key, set()).add(int(offset_mv))
        self.revision += 1

    def extend(self, cells: Iterable[CellResult]) -> None:
        """Fold a batch of probed cells into the set."""
        for cell in cells:
            if cell.crashed:
                self.add_crash(cell.frequency_ghz, cell.offset_mv)
            elif cell.fault_count > 0:
                self.add_unsafe(cell.frequency_ghz, cell.offset_mv)

    def merge(self, other: "UnsafeStateSet") -> "UnsafeStateSet":
        """Union with another characterization of the same system.

        Merging is how multi-condition characterizations compose: e.g.
        sweeps taken at different die temperatures (whose worst case is
        frequency-dependent) or after a microcode update.  The union is
        conservative — a state unsafe under *any* merged condition is
        treated as unsafe.
        """
        merged = UnsafeStateSet(system=self.system)
        for source in (self, other):
            for key, offsets in source._unsafe.items():
                merged._unsafe.setdefault(key, set()).update(offsets)
            for key, offsets in source._crash.items():
                merged._crash.setdefault(key, set()).update(offsets)
        return merged

    # -- queries ----------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """Whether no unsafe cell has been recorded."""
        return not self._unsafe

    def frequencies_ghz(self) -> List[float]:
        """All characterized frequencies with unsafe cells, ascending."""
        return [ratio_to_ghz(key) for key in sorted(self._unsafe)]

    def unsafe_offsets(self, frequency_ghz: float) -> List[int]:
        """All recorded unsafe offsets at a frequency, descending depth."""
        return sorted(self._unsafe.get(_freq_key(frequency_ghz), ()), reverse=True)

    def crash_offsets(self, frequency_ghz: float) -> List[int]:
        """All recorded crash offsets at a frequency."""
        return sorted(self._crash.get(_freq_key(frequency_ghz), ()), reverse=True)

    def boundary_mv(self, frequency_ghz: float) -> Optional[float]:
        """Shallowest unsafe offset at a frequency, or None if all safe.

        Any offset at or below (deeper than) this value is treated as
        unsafe: the unsafe region is downward-closed in voltage, because
        lowering the voltage only inflates ``T_src + T_prop`` further
        (observation O3).
        """
        offsets = self._unsafe.get(_freq_key(frequency_ghz))
        if not offsets:
            return None
        return float(max(offsets))

    def effective_boundary_mv(self, frequency_ghz: float) -> Optional[float]:
        """Boundary at a frequency, interpolated if not directly probed.

        For a frequency between characterized points the boundary is the
        *shallower* (more conservative) of the two neighbours; outside the
        characterized range it is the nearest endpoint's.
        """
        exact = self.boundary_mv(frequency_ghz)
        if exact is not None:
            return exact
        keys = sorted(self._unsafe)
        if not keys:
            return None
        key = _freq_key(frequency_ghz)
        lower = [k for k in keys if k < key]
        upper = [k for k in keys if k > key]
        candidates = []
        if lower:
            candidates.append(max(self._unsafe[lower[-1]]))
        if upper:
            candidates.append(max(self._unsafe[upper[0]]))
        return float(max(candidates))

    def is_unsafe(self, frequency_ghz: float, offset_mv: float) -> bool:
        """Algo 3, line 6: does (frequency, offset) lie in the unsafe set?

        A half-quantum tolerance absorbs the overclocking mailbox's
        1/1024 V resolution: an attacker's "-85 mV" request reads back as
        -84.96 mV, which must still match the -85 mV boundary cell.
        """
        boundary = self.effective_boundary_mv(frequency_ghz)
        if boundary is None:
            return False
        return offset_mv <= boundary + 0.5

    def safe_offset_mv(self, frequency_ghz: float, *, margin_mv: float = DEFAULT_SAFETY_MARGIN_MV) -> float:
        """Deepest offset still considered safe at a frequency.

        ``margin_mv`` backs off from the observed fault boundary to absorb
        measurement granularity and regulator overshoot.
        """
        if margin_mv < 0:
            raise ConfigurationError("margin must be non-negative")
        boundary = self.effective_boundary_mv(frequency_ghz)
        if boundary is None:
            return 0.0 if self.is_empty else self.maximal_safe_offset_mv(margin_mv=margin_mv)
        return min(boundary + margin_mv, 0.0)

    def maximal_safe_offset_mv(self, *, margin_mv: float = DEFAULT_SAFETY_MARGIN_MV) -> float:
        """The maximal safe state (Sec. 5).

        The deepest negative offset at which *no* characterized frequency
        faults: the shallowest per-frequency boundary plus the margin.
        This single value is what the microcode sequencer or the proposed
        ``MSR_VOLTAGE_OFFSET_LIMIT`` clamps against.

        Raises
        ------
        CharacterizationError
            If no unsafe cell was ever recorded (nothing to derive from).
        """
        if self.is_empty:
            raise CharacterizationError(
                "cannot derive a maximal safe state from an empty unsafe set"
            )
        shallowest = max(max(offsets) for offsets in self._unsafe.values())
        return min(float(shallowest) + margin_mv, 0.0)

    def cell_count(self) -> int:
        """Total number of recorded unsafe cells."""
        return sum(len(offsets) for offsets in self._unsafe.values())

    # -- persistence --------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "system": self.system,
            "unsafe": {str(k): sorted(v) for k, v in self._unsafe.items()},
            "crash": {str(k): sorted(v) for k, v in self._crash.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UnsafeStateSet":
        """Rebuild a set from :meth:`to_dict` output."""
        result = cls(system=data.get("system", "unknown"))
        for key, offsets in data.get("unsafe", {}).items():
            result._unsafe[int(key)] = set(int(o) for o in offsets)
        for key, offsets in data.get("crash", {}).items():
            result._crash[int(key)] = set(int(o) for o in offsets)
        return result

    def boundary_profile(self) -> List[Tuple[float, float]]:
        """(frequency GHz, boundary mV) pairs for plotting Figs. 2-4."""
        return [
            (ratio_to_ghz(key), float(max(self._unsafe[key])))
            for key in sorted(self._unsafe)
        ]

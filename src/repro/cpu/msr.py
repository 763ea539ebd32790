"""Model-specific register file.

Per-core 64-bit register store with read/write hooks.  Hooks are the
mechanism through which

* the overclocking mailbox implements its command protocol on MSR 0x150,
* IA32_PERF_STATUS (0x198) is synthesised from live core state,
* the microcode-sequencer deployment of the countermeasure (Sec. 5.1)
  intercepts ``wrmsr`` and *ignores* unsafe writes, and
* the hardware MSR deployment (Sec. 5.2) clamps offsets.

Write hooks run in installation order; each receives the value produced by
the previous hook and may transform it or return ``None`` to swallow the
write entirely (the documented write-ignore behaviour Intel applies to
several MSRs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import MSRPermissionError, UnknownMSRError

_MASK64 = (1 << 64) - 1

# -- Architectural MSR addresses used by the paper --------------------------

#: Overclocking mailbox: voltage-offset interface (Table 1 of the paper).
MSR_OC_MAILBOX = 0x150

#: IA32_PERF_STATUS: current P-state ratio and core voltage readout.
IA32_PERF_STATUS = 0x198

#: IA32_PERF_CTL: requested P-state ratio (used by the cpufreq driver).
IA32_PERF_CTL = 0x199

#: MSR_PLATFORM_INFO: base/max ratios (read-only identification).
MSR_PLATFORM_INFO = 0xCE

#: The DRAM power-limit pair the paper cites as the semantic template for
#: its proposed clamp register (Sec. 5.2).
MSR_DRAM_POWER_LIMIT = 0x618
MSR_DRAM_POWER_INFO = 0x61C

#: The paper's *hypothetical* MSR_VOLTAGE_OFFSET_LIMIT (Sec. 5.2).  No
#: architectural address exists; we place it in an unused range.
MSR_VOLTAGE_OFFSET_LIMIT = 0x651

#: Human-readable names for reporting.
MSR_NAMES: Dict[int, str] = {
    MSR_OC_MAILBOX: "MSR_OC_MAILBOX (0x150)",
    IA32_PERF_STATUS: "IA32_PERF_STATUS (0x198)",
    IA32_PERF_CTL: "IA32_PERF_CTL (0x199)",
    MSR_PLATFORM_INFO: "MSR_PLATFORM_INFO (0xCE)",
    MSR_DRAM_POWER_LIMIT: "MSR_DRAM_POWER_LIMIT (0x618)",
    MSR_DRAM_POWER_INFO: "MSR_DRAM_POWER_INFO (0x61C)",
    MSR_VOLTAGE_OFFSET_LIMIT: "MSR_VOLTAGE_OFFSET_LIMIT (proposed)",
}

#: A write hook: ``(core_index, value) -> new_value | None`` where ``None``
#: silently drops the write.
WriteHook = Callable[[int, int], Optional[int]]

#: A read hook: ``(core_index, stored_value) -> value`` allowing registers
#: whose contents are synthesised from live state.
ReadHook = Callable[[int, int], int]


@dataclass
class MSRDefinition:
    """Static properties of one register."""

    address: int
    name: str
    writable: bool = True
    reset_value: int = 0


class MSRFile:
    """Per-core register store with hook dispatch.

    One :class:`MSRFile` instance serves a whole processor; values are
    keyed by ``(core_index, address)`` so per-core registers (0x198, 0x199)
    and package-scoped ones (held identical across cores) share machinery.
    """

    def __init__(self) -> None:
        self._definitions: Dict[int, MSRDefinition] = {}
        self._values: Dict[tuple, int] = {}
        self._write_hooks: Dict[int, List[WriteHook]] = {}
        self._read_hooks: Dict[int, List[ReadHook]] = {}

    # -- definition management ---------------------------------------------

    def define(
        self,
        address: int,
        *,
        name: Optional[str] = None,
        writable: bool = True,
        reset_value: int = 0,
    ) -> MSRDefinition:
        """Register an MSR so reads/writes to it are legal."""
        definition = MSRDefinition(
            address=address,
            name=name or MSR_NAMES.get(address, f"MSR 0x{address:x}"),
            writable=writable,
            reset_value=reset_value & _MASK64,
        )
        self._definitions[address] = definition
        return definition

    def is_defined(self, address: int) -> bool:
        """Whether an address has been defined."""
        return address in self._definitions

    def definition(self, address: int) -> MSRDefinition:
        """Fetch a definition, raising :class:`UnknownMSRError` if absent."""
        try:
            return self._definitions[address]
        except KeyError:
            raise UnknownMSRError(address) from None

    def defined_addresses(self) -> List[int]:
        """All defined addresses, ascending."""
        return sorted(self._definitions)

    # -- hooks ---------------------------------------------------------------

    def add_write_hook(self, address: int, hook: WriteHook) -> None:
        """Append a write hook for an address (runs after existing hooks)."""
        self.definition(address)
        self._write_hooks.setdefault(address, []).append(hook)

    def insert_write_hook(self, address: int, hook: WriteHook) -> None:
        """Prepend a write hook (runs before existing hooks).

        Microcode-level interception uses this: the sequencer sees the
        ``wrmsr`` before the mailbox logic does.
        """
        self.definition(address)
        self._write_hooks.setdefault(address, []).insert(0, hook)

    def remove_write_hook(self, address: int, hook: WriteHook) -> None:
        """Remove a previously installed write hook."""
        hooks = self._write_hooks.get(address, [])
        hooks.remove(hook)

    def add_read_hook(self, address: int, hook: ReadHook) -> None:
        """Append a read hook for an address."""
        self.definition(address)
        self._read_hooks.setdefault(address, []).append(hook)

    # -- access ---------------------------------------------------------------

    def read(self, core_index: int, address: int) -> int:
        """``rdmsr``: read a register on one core."""
        try:
            definition = self._definitions[address]
        except KeyError:
            raise UnknownMSRError(address) from None
        value = self._values.get((core_index, address), definition.reset_value)
        hooks = self._read_hooks.get(address)
        if hooks:
            for hook in hooks:
                value = hook(core_index, value) & _MASK64
        return value

    def write(self, core_index: int, address: int, value: int) -> bool:
        """``wrmsr``: write a register on one core.

        Returns ``True`` if the value was stored, ``False`` if a hook
        swallowed the write (write-ignore semantics).
        """
        definition = self.definition(address)
        if not definition.writable:
            raise MSRPermissionError(f"{definition.name} is read-only")
        current: Optional[int] = value & _MASK64
        for hook in self._write_hooks.get(address, []):
            current = hook(core_index, current)
            if current is None:
                return False
            current &= _MASK64
        self._values[(core_index, address)] = current
        return True

    def poke(self, core_index: int, address: int, value: int) -> None:
        """Store a value bypassing hooks (hardware-internal updates)."""
        self.definition(address)
        self._values[(core_index, address)] = value & _MASK64

    def reset(self) -> None:
        """Clear all stored values back to reset defaults (machine reboot)."""
        self._values.clear()

"""The memory dispatcher (paper sections 5.1 and 5.2).

The dispatcher is the module that breaks cycle accuracy for speed: it can
serve MicroBlaze instruction fetches (and, in the stronger mode, every
main-memory data access) by reading the memory backing stores directly, in
a single simulated cycle, with no OPB arbitration and no slave scheduling.

Both capabilities can be toggled at run time, matching the paper's claim
that "the operation of the memory dispatcher can be turned on and off at
run-time".  When main-memory handling is enabled the SDRAM slave is
detached from the bus so its decode process stops being scheduled
(section 5.2's second source of speed-up).
"""

from __future__ import annotations

from typing import Optional

from ..kernel.component import SimComponent
from ..kernel.errors import AddressError
from .memory import MemoryMap, MemoryStorage


class MemoryDispatcher(SimComponent):
    """Direct-access front end for the platform's memory backing stores."""

    #: Cycles accounted for a dispatcher-served access (paper: one cycle
    #: instead of the minimum of three).
    ACCESS_CYCLES = 1

    def __init__(self, memory_map: MemoryMap,
                 main_memory: Optional[MemoryStorage] = None,
                 handle_instruction_fetches: bool = False,
                 handle_main_memory: bool = False) -> None:
        self.memory_map = memory_map
        self.main_memory = main_memory
        self.handle_instruction_fetches = handle_instruction_fetches
        self.handle_main_memory = handle_main_memory
        self._main_memory_slave = None
        #: Statistics: accesses served by the dispatcher.
        self.instruction_fetches = 0
        self.data_accesses = 0

    # -- wiring -----------------------------------------------------------------
    def attach_main_memory_slave(self, slave) -> None:
        """Tell the dispatcher which bus slave owns the main memory.

        Needed so that enabling main-memory handling can detach the slave
        from the OPB (and re-attach it when handling is disabled).
        """
        self._main_memory_slave = slave
        if self.main_memory is None:
            self.main_memory = slave.storage

    # -- run-time toggling -----------------------------------------------------------
    def enable_instruction_fetches(self, enabled: bool = True) -> None:
        """Toggle dispatcher handling of instruction fetches (section 5.1)."""
        self.handle_instruction_fetches = enabled

    def enable_main_memory(self, enabled: bool = True) -> None:
        """Toggle dispatcher ownership of the main memory (section 5.2)."""
        self.handle_main_memory = enabled
        if self._main_memory_slave is not None:
            if enabled:
                self._main_memory_slave.detach()
            else:
                self._main_memory_slave.attach()

    def disable(self) -> None:
        """Return to fully cycle-accurate operation."""
        self.enable_instruction_fetches(False)
        self.enable_main_memory(False)

    # -- routing decisions -------------------------------------------------------------
    def serves_fetch(self, address: int) -> bool:
        """True when an instruction fetch from ``address`` bypasses the bus."""
        if not self.handle_instruction_fetches:
            return False
        try:
            self.memory_map.region_for(address, 4)
        except AddressError:
            return False
        return True

    def serves_data(self, address: int, size: int = 4) -> bool:
        """True when a data access to ``address`` bypasses the bus."""
        if not self.handle_main_memory or self.main_memory is None:
            return False
        return self.main_memory.contains(address, size)

    # -- accesses (one simulated cycle each, accounted by the caller) -----------------------
    def fetch(self, address: int) -> tuple[int, int]:
        """Serve an instruction fetch; returns ``(word, cycles)``."""
        self.instruction_fetches += 1
        return self.memory_map.read(address, 4), self.ACCESS_CYCLES

    def read(self, address: int, size: int = 4) -> tuple[int, int]:
        """Serve a data read; returns ``(value, cycles)``."""
        self.data_accesses += 1
        return self.memory_map.read(address, size), self.ACCESS_CYCLES

    def write(self, address: int, value: int, size: int = 4) -> int:
        """Serve a data write; returns the cycle cost."""
        self.data_accesses += 1
        self.memory_map.write(address, value, size)
        return self.ACCESS_CYCLES

    # -- checkpoint / restore -------------------------------------------------
    def capture_state(self) -> dict:
        """Served-access counters (the toggles are configuration, not state;
        the backing stores are snapshotted through their owning slaves)."""
        return {
            "instruction_fetches": self.instruction_fetches,
            "data_accesses": self.data_accesses,
        }

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`capture_state` output."""
        self.instruction_fetches = state["instruction_fetches"]
        self.data_accesses = state["data_accesses"]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MemoryDispatcher(ifetch={self.handle_instruction_fetches}, "
                f"main_memory={self.handle_main_memory})")


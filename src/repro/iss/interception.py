"""Kernel-function interception (paper section 5.4).

The uClinux boot spends 52 % of its instructions inside ``memset`` and
``memcpy``.  The paper's final model detects a jump to either function in
the ISS wrapper, reads the arguments from the MicroBlaze argument
registers, performs the operation natively on the host in zero simulation
time, patches the return-value register, and resumes execution at the
caller's return address.

:class:`KernelFunctionInterceptor` implements exactly that.  Handlers
operate on a *direct memory* interface (the backing store behind the bus
models), so no bus transactions and no simulated cycles are consumed --
only the architectural effect remains, which is why the optimisation is
neither cycle accurate nor statistics preserving.

A handler runs its whole call as one region-level operation --
:meth:`DirectMemory.fill` or :meth:`DirectMemory.copy`, a single slice
operation on the backing store -- so its host cost barely grows with the
length.  Only a range that no single writable region holds takes the byte
loop, which writes what a store loop would and faults where it would.
Either way the memory contents, the access counters and the
decoded-program cache end up as the byte loop leaves them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Protocol

from ..isa.registers import (ARGUMENT_REGISTERS, LINK_REGISTER,
                             RETURN_VALUE_REGISTER)
from ..isa.symbols import SymbolTable
from .core import MicroBlazeCore


class DirectMemory(Protocol):
    """Byte-addressable backing store reachable without bus transactions."""

    def read(self, address: int, size: int) -> int:
        """Read ``size`` bytes at ``address`` as an unsigned integer."""

    def write(self, address: int, value: int, size: int) -> None:
        """Write ``size`` bytes of ``value`` at ``address``."""

    def fill(self, dest: int, value: int, length: int) -> bool:
        """Set ``length`` bytes from ``dest`` to the byte ``value``.

        Returns False, touching nothing, unless one writable region holds
        the whole range.
        """

    def copy(self, dest: int, src: int, length: int) -> bool:
        """Copy ``length`` bytes from ``src`` to ``dest`` as a forward byte
        loop would, overlap included.

        Returns False, touching nothing, unless one region holds the source
        range and one writable region the destination range.
        """


class InvalidatingDirectMemory:
    """:class:`DirectMemory` adapter that keeps a decoded-program cache
    coherent: every write also drops any decoded entries covering the
    written bytes, so a natively-executed ``memcpy`` into code is as
    SMC-safe as an ordinary store instruction."""

    def __init__(self, memory: DirectMemory, core: MicroBlazeCore) -> None:
        self._memory = memory
        self._core = core

    def read(self, address: int, size: int) -> int:
        return self._memory.read(address, size)

    def write(self, address: int, value: int, size: int) -> None:
        self._memory.write(address, value, size)
        self._core.invalidate_code(address, size)

    def fill(self, dest: int, value: int, length: int) -> bool:
        if not self._memory.fill(dest, value, length):
            return False
        self._core.invalidate_code_range(dest, length)
        return True

    def copy(self, dest: int, src: int, length: int) -> bool:
        if not self._memory.copy(dest, src, length):
            return False
        self._core.invalidate_code_range(dest, length)
        return True


@dataclass
class InterceptionResult:
    """What a handler did: used for statistics and tests."""

    function: str
    skipped_instructions: int
    bytes_processed: int


HandlerFn = Callable[[MicroBlazeCore, DirectMemory], InterceptionResult]


#: Instructions the ``repro.software.clib`` routines retire per call, which
#: is what an interception skips: the entry code (``add``, the ``imm`` the
#: assembler puts before the forward ``beqi``, the ``beqi`` and the cursor
#: moves) plus ``rtsd`` and its delay slot, and a loop body per byte.  A
#: zero-length call leaves at the ``beqi`` and skips the loop and cursor
#: moves.
MEMSET_CALL_INSTRUCTIONS = 6
MEMSET_INSTRUCTIONS_PER_BYTE = 4        # sb, 2x addik, bnei
MEMCPY_CALL_INSTRUCTIONS = 7
MEMCPY_INSTRUCTIONS_PER_BYTE = 6        # lbu, sb, 3x addik, bnei
ZERO_LENGTH_CALL_INSTRUCTIONS = 5


def _skipped(length: int, per_call: int, per_byte: int) -> int:
    if length == 0:
        return ZERO_LENGTH_CALL_INSTRUCTIONS
    return per_call + length * per_byte


def memset_handler(core: MicroBlazeCore,
                   memory: DirectMemory) -> InterceptionResult:
    """Native implementation of ``memset(dest, value, length)``."""
    dest = core.regs.read(ARGUMENT_REGISTERS[0])
    value = core.regs.read(ARGUMENT_REGISTERS[1]) & 0xFF
    length = core.regs.read(ARGUMENT_REGISTERS[2])
    if not memory.fill(dest, value, length):
        # No single writable region holds the range: store byte by byte,
        # faulting exactly where the routine's store loop would.
        for offset in range(length):
            memory.write(dest + offset, value, 1)
    core.regs.write(RETURN_VALUE_REGISTER, dest)
    skipped = _skipped(length, MEMSET_CALL_INSTRUCTIONS,
                       MEMSET_INSTRUCTIONS_PER_BYTE)
    return InterceptionResult("memset", skipped, length)


def memcpy_handler(core: MicroBlazeCore,
                   memory: DirectMemory) -> InterceptionResult:
    """Native implementation of ``memcpy(dest, src, length)``."""
    dest = core.regs.read(ARGUMENT_REGISTERS[0])
    src = core.regs.read(ARGUMENT_REGISTERS[1])
    length = core.regs.read(ARGUMENT_REGISTERS[2])
    if not memory.copy(dest, src, length):
        for offset in range(length):
            memory.write(dest + offset, memory.read(src + offset, 1), 1)
    core.regs.write(RETURN_VALUE_REGISTER, dest)
    skipped = _skipped(length, MEMCPY_CALL_INSTRUCTIONS,
                       MEMCPY_INSTRUCTIONS_PER_BYTE)
    return InterceptionResult("memcpy", skipped, length)


class KernelFunctionInterceptor:
    """Detects calls to registered functions and executes them natively."""

    def __init__(self, memory: DirectMemory,
                 enabled: bool = True) -> None:
        self.memory = memory
        self.enabled = enabled
        self._handlers: Dict[int, tuple[str, HandlerFn]] = {}

    # -- registration ---------------------------------------------------------
    def register(self, address: int, name: str, handler: HandlerFn) -> None:
        """Intercept jumps to ``address`` with ``handler``."""
        self._handlers[address] = (name, handler)

    def register_standard_functions(self, symbols: SymbolTable) -> int:
        """Register memset/memcpy handlers for symbols present in ``symbols``.

        Returns the number of functions hooked.
        """
        hooked = 0
        for name, handler in (("memset", memset_handler),
                              ("memcpy", memcpy_handler)):
            address = symbols.get(name)
            if address is not None:
                self.register(address, name, handler)
                hooked += 1
        return hooked

    @property
    def registered_addresses(self) -> tuple[int, ...]:
        """Addresses currently hooked."""
        return tuple(self._handlers)

    # -- runtime toggling (paper: optimisations switchable during the run) ----
    def enable(self) -> None:
        """Turn interception on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn interception off (full cycle-accurate execution resumes)."""
        self.enabled = False

    # -- the hook used by ISS wrappers -----------------------------------------
    def maybe_intercept(self, core: MicroBlazeCore) -> Optional[
            InterceptionResult]:
        """If the core is about to enter a hooked function, run it natively.

        Must be called when the core is at an instruction boundary (not in a
        delay slot, no pending IMM prefix).  Returns the result when an
        interception fired, otherwise ``None``.
        """
        if not self.enabled:
            return None
        if core.in_delay_slot or core.imm_prefix_active:
            return None
        entry = self._handlers.get(core.pc)
        if entry is None:
            return None
        name, handler = entry
        result = handler(core, self.memory)
        # Resume at the caller: the link register holds the address of the
        # branch-and-link instruction; +8 skips it and its delay slot.
        return_address = (core.regs.read(LINK_REGISTER) + 8) & 0xFFFF_FFFF
        core.pc = return_address
        core.stats.record_interception(result.skipped_instructions)
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"KernelFunctionInterceptor(enabled={self.enabled}, "
                f"functions={len(self._handlers)})")

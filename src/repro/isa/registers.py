"""MicroBlaze register model: general-purpose file, MSR and special registers.

Register conventions used by the workloads (the standard MicroBlaze ABI):

* ``r0``   -- always zero.
* ``r1``   -- stack pointer.
* ``r3/r4``-- return values.
* ``r5-r10`` -- argument registers (memset/memcpy arguments live in r5-r7,
  which is what the kernel-function interception of section 5.4 reads).
* ``r14``  -- interrupt return address.
* ``r15``  -- sub-routine return address.
"""

from __future__ import annotations

from ..datatypes import WORD_MASK, get_bit, set_bit

#: ABI register aliases accepted by the assembler.
ABI_ALIASES = {
    "zero": 0,
    "sp": 1,
    "retval": 3,
    "arg0": 5,
    "arg1": 6,
    "arg2": 7,
    "intret": 14,
    "link": 15,
}

#: Registers used to pass the first three function arguments.
ARGUMENT_REGISTERS = (5, 6, 7)
RETURN_VALUE_REGISTER = 3
LINK_REGISTER = 15
INTERRUPT_LINK_REGISTER = 14
STACK_POINTER = 1


class RegisterFile:
    """The 32 general-purpose registers, with ``r0`` hard-wired to zero."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        #: The register values.  The ISS binds this very list, so it is
        #: written in place, never replaced.
        self.values = [0] * 32

    def read(self, index: int) -> int:
        """Value of register ``index`` (unsigned 32-bit)."""
        if not 0 <= index < 32:
            raise IndexError(f"register index out of range: {index}")
        return self.values[index]

    def write(self, index: int, value: int) -> None:
        """Write register ``index``; writes to ``r0`` are discarded."""
        if not 0 <= index < 32:
            raise IndexError(f"register index out of range: {index}")
        if index == 0:
            return
        self.values[index] = value & WORD_MASK

    def reset(self) -> None:
        """Clear every register."""
        for i in range(32):
            self.values[i] = 0

    def dump(self) -> dict[str, int]:
        """Snapshot of all registers keyed by ``rN`` name."""
        return {f"r{i}": self.values[i] for i in range(32)}

    def __getitem__(self, index: int) -> int:
        return self.read(index)

    def __setitem__(self, index: int, value: int) -> None:
        self.write(index, value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nonzero = {f"r{i}": hex(v) for i, v in enumerate(self.values) if v}
        return f"RegisterFile({nonzero})"


class MachineStatusRegister:
    """The MSR: carry, interrupt-enable, break-in-progress and copy bits."""

    BIT_BE = 0       # Buslock enable (unused here, kept for completeness)
    BIT_IE = 1       # Interrupt enable
    BIT_C = 2        # Arithmetic carry
    BIT_BIP = 3      # Break in progress
    BIT_EE = 8       # Exception enable
    BIT_EIP = 9      # Exception in progress
    BIT_CC = 31      # Carry copy (mirrors bit C)

    def __init__(self) -> None:
        self._value = 0

    # -- whole-register access ---------------------------------------------
    @property
    def value(self) -> int:
        """Raw MSR value with the carry-copy bit kept coherent."""
        return set_bit(self._value, self.BIT_CC, get_bit(self._value,
                                                         self.BIT_C))

    @value.setter
    def value(self, new_value: int) -> None:
        new_value &= WORD_MASK
        # Writing either carry bit updates both.
        carry = get_bit(new_value, self.BIT_C) | get_bit(new_value,
                                                         self.BIT_CC)
        new_value = set_bit(new_value, self.BIT_C, carry)
        self._value = new_value & ~(1 << self.BIT_CC)

    def reset(self) -> None:
        """Clear the MSR."""
        self._value = 0

    # -- named flags ---------------------------------------------------------
    @property
    def carry(self) -> int:
        """Arithmetic carry flag (0 or 1)."""
        return get_bit(self._value, self.BIT_C)

    @carry.setter
    def carry(self, bit: int) -> None:
        self._value = set_bit(self._value, self.BIT_C, bit)

    @property
    def interrupt_enable(self) -> bool:
        """True when interrupts are enabled."""
        return bool(get_bit(self._value, self.BIT_IE))

    @interrupt_enable.setter
    def interrupt_enable(self, enabled: bool) -> None:
        self._value = set_bit(self._value, self.BIT_IE, int(enabled))

    @property
    def break_in_progress(self) -> bool:
        """True while servicing a break."""
        return bool(get_bit(self._value, self.BIT_BIP))

    @break_in_progress.setter
    def break_in_progress(self, active: bool) -> None:
        self._value = set_bit(self._value, self.BIT_BIP, int(active))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MSR(C={self.carry}, IE={int(self.interrupt_enable)}, "
                f"BIP={int(self.break_in_progress)})")

"""General-purpose I/O peripheral.

Two 32-bit channels (data and tristate), matching the OPB GPIO used on the
V2MB1000 board for LEDs and DIP switches.  uClinux touches it only a
handful of times during boot, which is why its every-cycle address decoding
is pure overhead -- the "reduced scheduling 2" optimisation (section 5.3)
gates exactly this kind of peripheral.
"""

from __future__ import annotations

from ..bus.opb import OpbSlave
from ..bus.signals import OpbInterconnect
from ..datatypes import WORD_MASK
from ..kernel.engine import SimulationEngine


class Gpio(OpbSlave):
    """Single-channel GPIO with data and tristate registers."""

    latency = 1

    REG_DATA = 0x0
    REG_TRISTATE = 0x4

    def __init__(self, sim: SimulationEngine, name: str, base_address: int,
                 interconnect: OpbInterconnect, clock,
                 **slave_options) -> None:
        super().__init__(sim, name, base_address, 0x100, interconnect, clock,
                         **slave_options)
        self.data = 0
        self.tristate = WORD_MASK     # all inputs after reset
        #: Value presented by the board (DIP switches and similar inputs).
        self.external_inputs = 0
        #: History of values written to the outputs (LED changes).
        self.output_history: list[int] = []

    def read_register(self, offset: int, size: int) -> int:
        offset &= 0xF
        if offset == self.REG_DATA:
            # Input bits come from the board, output bits read back.
            return ((self.external_inputs & self.tristate)
                    | (self.data & ~self.tristate)) & WORD_MASK
        if offset == self.REG_TRISTATE:
            return self.tristate
        return 0

    def write_register(self, offset: int, value: int, size: int) -> None:
        offset &= 0xF
        if offset == self.REG_DATA:
            self.data = value & WORD_MASK
            self.output_history.append(self.data)
        elif offset == self.REG_TRISTATE:
            self.tristate = value & WORD_MASK

    def set_inputs(self, value: int) -> None:
        """Drive the board-side inputs (test/benchmark helper)."""
        self.external_inputs = value & WORD_MASK

    def warp_serves(self, address: int, value) -> bool:
        """Every access: the GPIO has no signal and no state that moves
        with time, and the board inputs change only between run windows,
        which a warp never crosses."""
        return True

    # -- checkpoint / restore -----------------------------------------------
    def capture_state(self) -> dict:
        """Plain-data snapshot of the GPIO registers and history."""
        return {
            "data": self.data,
            "tristate": self.tristate,
            "external_inputs": self.external_inputs,
            "output_history": list(self.output_history),
            "transactions": self.transactions,
        }

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`capture_state` output."""
        self.data = state["data"]
        self.tristate = state["tristate"]
        self.external_inputs = state["external_inputs"]
        self.output_history[:] = state["output_history"]
        self.transactions = state["transactions"]

"""OPB Timer/Counter.

A single-channel version of the Xilinx OPB timer: a free-running 32-bit
counter with a load register, auto-reload and an interrupt flag.  Register
map (word offsets from the peripheral base):

====== ====== =====================================================
offset name   behaviour
====== ====== =====================================================
0x0    TCSR   control/status: bit0 enable, bit1 auto-reload,
              bit2 interrupt enable, bit8 interrupt flag
              (write 1 to clear)
0x4    TLR    load register (reload value)
0x8    TCR    current counter value (read only)
====== ====== =====================================================

The count process is clocked every cycle -- it is one of the platform's
always-scheduled processes and therefore part of the scheduling load the
paper's section 4.5 optimisations target.
"""

from __future__ import annotations

from ..bus.opb import OpbSlave
from ..bus.signals import OpbInterconnect
from ..datatypes import WORD_MASK
from ..kernel.engine import SimulationEngine
from ..signals import Signal


class OpbTimer(OpbSlave):
    """Up-counting timer with auto-reload and a level interrupt output."""

    latency = 1

    REG_TCSR = 0x0
    REG_TLR = 0x4
    REG_TCR = 0x8

    CTRL_ENABLE = 0x01
    CTRL_AUTO_RELOAD = 0x02
    CTRL_INTERRUPT_ENABLE = 0x04
    CTRL_INTERRUPT_FLAG = 0x100

    def __init__(self, sim: SimulationEngine, name: str, base_address: int,
                 interconnect: OpbInterconnect, clock,
                 use_method: bool = True,
                 count_process: bool = True,
                 **slave_options) -> None:
        super().__init__(sim, name, base_address, 0x100, interconnect, clock,
                         use_method=use_method, **slave_options)
        self.control = 0
        self.load_value = 0
        self.counter = 0
        #: Level interrupt output, wired to the interrupt controller.
        self.interrupt = Signal(sim, f"{name}.interrupt", 0)
        #: Number of times the counter wrapped / matched (statistics).
        self.expirations = 0
        self._count_process = None
        if count_process:
            self._count_process = self.sc_process(
                self._count, sensitive=[clock.posedge_event()],
                use_method=use_method, dont_initialize=True)

    # -- register interface ----------------------------------------------------
    def read_register(self, offset: int, size: int) -> int:
        offset &= 0xF
        if offset == self.REG_TCSR:
            return self.control
        if offset == self.REG_TLR:
            return self.load_value
        if offset == self.REG_TCR:
            return self.counter
        return 0

    def write_register(self, offset: int, value: int, size: int) -> None:
        offset &= 0xF
        if offset == self.REG_TCSR:
            was_enabled = self.enabled
            if value & self.CTRL_INTERRUPT_FLAG:
                # Write-one-to-clear the interrupt flag.
                self.control &= ~self.CTRL_INTERRUPT_FLAG
                value &= ~self.CTRL_INTERRUPT_FLAG
                self.interrupt.write(0)
            self.control = (self.control & self.CTRL_INTERRUPT_FLAG) \
                | (value & 0xFF)
            if not was_enabled and self.enabled:
                # Enabling the timer loads the counter from TLR.
                self.counter = self.load_value
        elif offset == self.REG_TLR:
            self.load_value = value & WORD_MASK
        # TCR is read-only.

    def warp_serves(self, address: int, value) -> bool:
        """``TCSR`` and ``TLR`` reads, ``TLR`` writes, and ``TCSR`` writes
        that leave ``ENABLE`` as it is (the handler's write-one-to-clear
        of ``TINT``, say).

        A warp never crosses an expiry (the master bounds it there), so
        only these writes change ``control`` or ``load_value`` under it;
        clearing ``TINT`` only lowers the interrupt line, and the
        controller latches only lines that are high.  ``TCR`` reads see
        a counter the warp reconciles only at its end, and starting or
        stopping the counter moves that bound: both end the warp.
        """
        offset = (address - self.base_address) & 0xF
        if offset == self.REG_TCSR:
            return value is None \
                or bool(value & self.CTRL_ENABLE) == self.enabled
        return offset == self.REG_TLR

    # -- checkpoint / restore --------------------------------------------------
    def capture_state(self) -> dict:
        """Plain-data snapshot of the timer registers and counters."""
        return {
            "control": self.control,
            "load_value": self.load_value,
            "counter": self.counter,
            "expirations": self.expirations,
            "transactions": self.transactions,
        }

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`capture_state` output."""
        self.control = state["control"]
        self.load_value = state["load_value"]
        self.counter = state["counter"]
        self.expirations = state["expirations"]
        self.transactions = state["transactions"]

    def state_children(self) -> dict:
        return {"interrupt": self.interrupt}

    # -- behaviour -----------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True while the counter is running."""
        return bool(self.control & self.CTRL_ENABLE)

    @property
    def interrupt_pending(self) -> bool:
        """True while the interrupt flag is set."""
        return bool(self.control & self.CTRL_INTERRUPT_FLAG)

    def _count(self) -> None:
        if not self.enabled:
            return
        self.counter = (self.counter + 1) & WORD_MASK
        if self.counter == 0:
            self.expirations += 1
            self.control |= self.CTRL_INTERRUPT_FLAG
            if self.control & self.CTRL_INTERRUPT_ENABLE:
                self.interrupt.write(1)
            if self.control & self.CTRL_AUTO_RELOAD:
                self.counter = self.load_value
            else:
                self.control &= ~self.CTRL_ENABLE

    def force_expire(self) -> None:
        """Test helper: make the counter expire on its next counted cycle."""
        self.counter = WORD_MASK

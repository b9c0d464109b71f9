"""OPB Interrupt Controller.

Gathers the level interrupt outputs of the peripherals (timer, UARTs,
Ethernet MAC) into the single interrupt input of the MicroBlaze.  Register
map (word offsets), following the Xilinx OPB INTC:

====== ===== ==========================================
offset name  behaviour
====== ===== ==========================================
0x00   ISR   interrupt status (latched inputs)
0x04   IPR   pending = ISR & IER (read only)
0x08   IER   interrupt enable mask
0x0C   IAR   acknowledge: write 1s to clear ISR bits
0x10   SIE   set enable bits
0x14   CIE   clear enable bits
0x1C   MER   master enable (bit0) / hardware enable (bit1)
====== ===== ==========================================
"""

from __future__ import annotations

from ..bus.opb import WARP_ACK, OpbSlave
from ..bus.signals import OpbInterconnect
from ..kernel.engine import SimulationEngine
from ..signals import Signal


class InterruptController(OpbSlave):
    """Level-sensitive interrupt concentrator."""

    latency = 1

    REG_ISR = 0x00
    REG_IPR = 0x04
    REG_IER = 0x08
    REG_IAR = 0x0C
    REG_SIE = 0x10
    REG_CIE = 0x14
    REG_MER = 0x1C

    def __init__(self, sim: SimulationEngine, name: str, base_address: int,
                 interconnect: OpbInterconnect, clock,
                 use_method: bool = True,
                 poll_process: bool = True,
                 **slave_options) -> None:
        super().__init__(sim, name, base_address, 0x100, interconnect, clock,
                         use_method=use_method, **slave_options)
        self.isr = 0
        self.ier = 0
        self.mer = 0
        #: Interrupt output towards the MicroBlaze.
        self.irq = Signal(sim, f"{name}.irq", 0)
        self._inputs: list[tuple[int, Signal]] = []
        if poll_process:
            self.warp_processes = (self.sc_process(
                self.poll_inputs, sensitive=[clock.posedge_event()],
                use_method=use_method, dont_initialize=True,
                name="_poll_inputs"),)

    # -- wiring ---------------------------------------------------------------
    def connect_input(self, bit: int, source: Signal) -> None:
        """Connect a peripheral interrupt output to input ``bit``."""
        if not 0 <= bit < 32:
            raise ValueError(f"interrupt input bit out of range: {bit}")
        self._inputs.append((bit, source))

    @property
    def input_count(self) -> int:
        """Number of connected interrupt sources."""
        return len(self._inputs)

    # -- register interface -------------------------------------------------------
    def read_register(self, offset: int, size: int) -> int:
        offset &= 0x1F
        if offset == self.REG_ISR:
            return self.isr
        if offset == self.REG_IPR:
            return self.isr & self.ier
        if offset == self.REG_IER:
            return self.ier
        if offset == self.REG_MER:
            return self.mer
        return 0

    def write_register(self, offset: int, value: int, size: int) -> None:
        offset &= 0x1F
        if offset == self.REG_IER:
            self.ier = value
        elif offset == self.REG_IAR:
            self.isr &= ~value
        elif offset == self.REG_SIE:
            self.ier |= value
        elif offset == self.REG_CIE:
            self.ier &= ~value
        elif offset == self.REG_MER:
            self.mer = value & 0x3
        elif offset == self.REG_ISR:
            # Software may set status bits directly (simulation aid).
            self.isr |= value
        self._update_output()

    # -- checkpoint / restore ---------------------------------------------------
    def capture_state(self) -> dict:
        """Plain-data snapshot of the controller registers."""
        return {
            "isr": self.isr,
            "ier": self.ier,
            "mer": self.mer,
            "transactions": self.transactions,
        }

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`capture_state` output."""
        self.isr = state["isr"]
        self.ier = state["ier"]
        self.mer = state["mer"]
        self.transactions = state["transactions"]

    def state_children(self) -> dict:
        return {"irq": self.irq}

    # -- behaviour --------------------------------------------------------------------
    def poll_inputs(self) -> None:
        """Latch the level inputs into ISR each cycle and drive the output."""
        for bit, source in self._inputs:
            if source.value:
                self.isr |= (1 << bit)
        self._update_output()

    def _update_output(self) -> None:
        enabled = bool(self.mer & 0x1)
        pending = self.isr & self.ier
        self.irq.write(1 if (enabled and pending) else 0)

    @property
    def pending(self) -> int:
        """Currently pending (enabled and latched) interrupts."""
        return self.isr & self.ier

    # -- warp participant (a quantum-level CPU running ahead) ----------------
    def warp_ready(self, servicing: bool) -> bool:
        """Whether the CPU may run ahead with this controller's poll
        detached, i.e. whether re-polling during the warp would change
        nothing.

        The output must be stable and consistent with the latched state,
        and every asserted input already latched.  Outside interrupt
        service (``servicing`` False) no interrupt may be in flight: the
        output is low.  In service it is high, which the detached poll
        would hold it at.
        """
        irq = self.irq
        level = 1 if (self.mer & 0x1) and (self.isr & self.ier) else 0
        if irq.pending_value != irq.value or irq.value != level \
                or (level and not servicing):
            return False
        for bit, source in self._inputs:
            if source.pending_value != source.value \
                    or (source.value and not self.isr & (1 << bit)):
                return False
        return True

    def warp_serves(self, address: int, value) -> bool:
        """Only an acknowledge (``IAR``) that drops the output for good.

        No enabled source may stay pending, and the output must be high
        with no other value pending (the detached poll's last activation
        may leave an unchanged one).  Every input must be low, or falling
        by an update still pending (the timer line after a ``TINT`` clear
        earlier in the warp): a high input would re-latch ``ISR`` on the
        next poll.  The CPU's interrupt request then falls with the store
        (:meth:`warp_access` answers ``WARP_ACK``).
        """
        if value is None \
                or (address - self.base_address) & 0x1F != self.REG_IAR:
            return False
        if (self.mer & 0x1) and (self.isr & ~value & self.ier):
            return False
        if not (self.irq.value and self.irq.pending_value):
            return False
        return not any(source.pending_value for _bit, source in self._inputs)

    def warp_access(self, address: int, value, size: int,
                    edge_ps: int) -> str:
        """Perform the acknowledge :meth:`warp_serves` approved."""
        self.target_write(address, value, size)
        return WARP_ACK

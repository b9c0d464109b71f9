"""Pin/cycle-accurate model of the On-chip Peripheral Bus (OPB).

Three cooperating pieces:

* :class:`OpbArbiter` -- the bus module proper: arbitrates between the
  instruction-side and data-side masters, drives the shared bus signals and
  terminates the transfer when the addressed slave acknowledges.
* :class:`OpbMasterPort` -- the master-side transaction helper used by the
  MicroBlaze wrapper: drives the per-master signals and waits (one clock
  cycle at a time) for grant + acknowledge.
* :class:`OpbSlave` -- base class for every peripheral on the bus: a clocked
  decode process that watches ``select``/``address`` every cycle (or, in
  the "reduced scheduling 2" configuration of section 5.3, only when the
  arbiter explicitly wakes it).

A complete transfer takes a minimum of three to four clock cycles
(request -> grant/select -> slave latency -> acknowledge), matching the
paper's statement that an OPB instruction fetch needs "the minimum of
three" cycles.
"""

from __future__ import annotations

from typing import Optional

from ..datatypes import byte_lane_mask
from ..kernel.component import SimComponent
from ..kernel.errors import ModelError
from ..kernel.events import Event
from ..kernel.module import Module
from ..kernel.engine import SimulationEngine
from ..signals.ports import InPort, OutPort
from .signals import OpbBusSignals, OpbInterconnect, OpbMasterSignals

#: Master identifiers (value driven on ``bus.master_id``).
INSTRUCTION_MASTER = 1
DATA_MASTER = 2

_TRANSFER_TIMEOUT_CYCLES = 1024

#: Answers of :meth:`OpbSlave.warp_access` besides a read value and None:
#: the access has to wait, unperformed, until the master surfaces at its
#: delivery horizon (``WARP_RETRY``); the store was performed and the
#: master must surface there before its next instruction (``WARP_FLUSH``);
#: the store dropped the master's interrupt request (``WARP_ACK``).
WARP_RETRY = "retry"
WARP_FLUSH = "flush"
WARP_ACK = "ack"


class OpbMasterPort(SimComponent):
    """Master-side helper that runs OPB transfers as generators.

    The owning thread process must be statically sensitive to the bus clock
    positive edge; :meth:`transfer` yields ``None`` once per clock cycle
    while the transfer is in flight.
    """

    __slots__ = ("name", "signals", "bus", "master_id", "transfer_count",
                 "cycles_spent")

    def __init__(self, name: str, signals: OpbMasterSignals,
                 bus: OpbBusSignals, master_id: int = 0) -> None:
        self.name = name
        self.signals = signals
        self.bus = bus
        #: Identifier quoted by timeout diagnostics (matches the value the
        #: arbiter drives on ``bus.master_id`` while this master is
        #: granted; the port itself never writes that signal).
        self.master_id = master_id
        #: Completed transfers and total cycles spent, for statistics.
        self.transfer_count = 0
        self.cycles_spent = 0

    def transfer(self, address: int, write_value: Optional[int] = None,
                 size: int = 4):
        """Run one transfer; yields once per clock cycle until complete.

        Returns ``(read_value, cycles)``; ``read_value`` is ``None`` for
        writes.  Use as ``value, cycles = yield from port.transfer(...)``.
        """
        is_write = write_value is not None
        signals = self.signals
        signals.address.write(address)
        signals.rnw.write(0 if is_write else 1)
        signals.byte_enable.write(byte_lane_mask(address, size))
        signals.write_data.write(write_value if is_write else 0)
        signals.request.write(1)
        cycles = 0
        while True:
            yield None
            cycles += 1
            if cycles > _TRANSFER_TIMEOUT_CYCLES:
                granted = signals.grant.read_bit()
                acked = self.bus.xfer_ack.read_bit()
                raise ModelError(
                    f"OPB {'write' if is_write else 'read'} timed out: "
                    f"master {self.name!r} (id {self.master_id}), "
                    f"address {address:#010x}, size {size}, "
                    f"waited {cycles} cycles "
                    f"(grant={int(granted)}, xfer_ack={int(acked)})")
            if signals.grant.read_bit() and self.bus.xfer_ack.read_bit():
                break
        read_value = None
        if not is_write:
            read_value = self.bus.read_data.read_int()
        signals.request.write(0)
        self.transfer_count += 1
        self.cycles_spent += cycles
        return read_value, cycles

    # -- checkpoint / restore ------------------------------------------------
    def capture_state(self) -> dict:
        """Per-master transfer statistics (no transfer is ever in flight
        at a snapshot's parked point)."""
        return {"transfer_count": self.transfer_count,
                "cycles_spent": self.cycles_spent}

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`capture_state` output."""
        self.transfer_count = state["transfer_count"]
        self.cycles_spent = state["cycles_spent"]


class OpbArbiter(Module, SimComponent):
    """Bus arbiter and address/control multiplexer.

    One method (or thread, per the model configuration) scheduled every
    clock cycle.  Data-side requests win over instruction-side requests,
    mirroring the priority MicroBlaze gives its data port.
    """

    def __init__(self, sim: SimulationEngine, name: str,
                 interconnect: OpbInterconnect, clock,
                 use_method: bool = True,
                 gate_rare_slaves: bool = False,
                 register_process: bool = True) -> None:
        super().__init__(sim, name)
        self.interconnect = interconnect
        self.clock = clock
        self.gate_rare_slaves = gate_rare_slaves
        self._busy_master: Optional[OpbMasterSignals] = None
        self._gated_ranges: list[tuple[int, int, Event]] = []
        #: Number of transfers granted (statistics).
        self.transactions_granted = 0
        #: Transfers broken down by master id.
        self.per_master_transactions = {INSTRUCTION_MASTER: 0,
                                        DATA_MASTER: 0}
        self.process = None
        if register_process:
            self.process = self.sc_process(
                self.arbitrate, sensitive=[clock.posedge_event()],
                use_method=use_method, dont_initialize=True,
                name="_arbitrate")

    # -- gating support (section 5.3) ----------------------------------------
    def register_gated_slave(self, base_address: int, size: int,
                             wake_event: Event) -> None:
        """Register an address range whose slave is woken explicitly."""
        self._gated_ranges.append((base_address, base_address + size,
                                   wake_event))

    # -- checkpoint / restore ------------------------------------------------
    def capture_state(self) -> dict:
        """Grant statistics (no transfer is in flight when parked)."""
        return {
            "transactions_granted": self.transactions_granted,
            "per_master_transactions": dict(self.per_master_transactions),
        }

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`capture_state` output."""
        self.transactions_granted = state["transactions_granted"]
        self.per_master_transactions.clear()
        self.per_master_transactions.update(state["per_master_transactions"])

    # -- the per-cycle process -------------------------------------------------
    def arbitrate(self) -> None:
        bus = self.interconnect.bus
        if bus.reset.read_bit():
            bus.select.write(0)
            self._busy_master = None
            return
        if self._busy_master is not None:
            if bus.xfer_ack.read_bit():
                bus.select.write(0)
                self._busy_master.grant.write(0)
                self._busy_master = None
            return
        chosen = None
        master_id = 0
        data_master = self.interconnect.data_master
        instruction_master = self.interconnect.instruction_master
        if data_master.request.read_bit():
            chosen, master_id = data_master, DATA_MASTER
        elif instruction_master.request.read_bit():
            chosen, master_id = instruction_master, INSTRUCTION_MASTER
        if chosen is None:
            return
        address = chosen.address.read_int()
        bus.address.write(address)
        bus.write_data.write(chosen.write_data.read_int())
        bus.rnw.write(chosen.rnw.read_int())
        bus.byte_enable.write(chosen.byte_enable.read_int())
        bus.master_id.write(master_id)
        bus.select.write(1)
        chosen.grant.write(1)
        self._busy_master = chosen
        self.transactions_granted += 1
        self.per_master_transactions[master_id] += 1
        if self.gate_rare_slaves:
            for low, high, wake_event in self._gated_ranges:
                if low <= address < high:
                    wake_event.notify_delta()
                    break


class WarpParticipant:
    """What a quantum-level master asks a device around a warp.

    As in TLM-2.0 temporal decoupling, the master's quantum keeper asks
    its targets instead of reading their state; each answers next to
    that state.  The defaults own no process, bound nothing and park
    nothing.
    """

    #: The clock processes this device owns, which a warp detaches.
    warp_processes: tuple = ()

    def warp_ready(self, servicing: bool) -> bool:
        """Whether a warp may start (``servicing``: an interrupt handler
        runs with the request still latched)."""
        return True

    def warp_horizon_ps(self) -> Optional[int]:
        """The earliest time the warp must surface at (None: none), asked
        at every sub-burst; after a surfacing, now ends the warp there."""
        return None

    def park(self) -> Optional[int]:
        """A warp starts now: return the earliest time it must end at, or
        None."""
        return None

    def unpark(self) -> None:
        """The warp charged nothing: undo :meth:`park`."""

    def resume(self, now: int) -> None:
        """The warp ended at ``now``: catch up with what it skipped."""


class OpbSlave(Module, SimComponent, WarpParticipant):
    """Base class for OPB-attached peripherals.

    Subclasses implement :meth:`read_register` and :meth:`write_register`
    (register-style peripherals) or override :meth:`handle_access` entirely
    (memory peripherals).  The decode process runs every clock cycle unless
    the slave is *gated*.
    """

    #: Cycles between observing ``select`` and asserting ``xfer_ack``.
    latency = 1

    def __init__(self, sim: SimulationEngine, name: str, base_address: int,
                 size: int, interconnect: OpbInterconnect, clock,
                 use_method: bool = True,
                 reduced_port_reading: bool = False,
                 gated: bool = False,
                 register_process: bool = True) -> None:
        super().__init__(sim, name)
        self.base_address = base_address
        self.size = size
        #: First address beyond this slave's range.
        self.end_address = base_address + size
        self.interconnect = interconnect
        self.clock = clock
        self.gated = gated
        self.wake_event = Event(sim, f"{name}.wake")
        #: True while this slave is detached from the bus (dispatcher mode).
        self.detached = False
        # Pin-accurate connection: one port per bus signal.
        bus = interconnect.bus
        self.select_port = InPort(f"{name}.select")
        self.address_port = InPort(f"{name}.address")
        self.wdata_port = InPort(f"{name}.wdata")
        self.rnw_port = InPort(f"{name}.rnw")
        self.be_port = InPort(f"{name}.be")
        self.reset_port = InPort(f"{name}.reset")
        self.rdata_port = OutPort(f"{name}.rdata")
        self.ack_port = OutPort(f"{name}.ack")
        self.select_port.bind(bus.select)
        self.address_port.bind(bus.address)
        self.wdata_port.bind(bus.write_data)
        self.rnw_port.bind(bus.rnw)
        self.be_port.bind(bus.byte_enable)
        self.reset_port.bind(bus.reset)
        self.rdata_port.bind(bus.read_data)
        self.ack_port.bind(bus.xfer_ack)
        self._countdown: Optional[int] = None
        self._ack_asserted = False
        self._await_deselect = False
        #: Accepted transactions (statistics).
        self.transactions = 0
        self.process = None
        if register_process:
            sensitivity = [self.wake_event] if gated \
                else [clock.posedge_event()]
            decode = self._decode_reduced if reduced_port_reading \
                else self._decode_naive
            self.process = self.sc_process(decode, sensitive=sensitivity,
                                           use_method=use_method,
                                           dont_initialize=True,
                                           name="_decode")

    # -- address decode --------------------------------------------------------
    def claims(self, address: int) -> bool:
        """True when ``address`` decodes to this slave."""
        return self.base_address <= address < self.end_address

    # -- the per-cycle decode process --------------------------------------------
    # One body per port-reading style, registered directly as the process.
    # Both start by letting go of an acknowledge asserted last activation
    # and end by re-arming a gated slave; only the port reads differ.  While
    # the completed transfer's select is still visible (_await_deselect),
    # neither decodes a new transfer until the arbiter withdraws it.
    def _decode_naive(self) -> None:
        """Hardware-style decode: re-reads ports, checks reset every cycle.

        This is the style the paper's section 4.4 calls out as inefficient:
        the reset port is read every cycle and the address/select ports are
        read more than once per activation.
        """
        if self.detached or (self._ack_asserted and self._end_acknowledge()):
            return
        if self.reset_port.read_bit():
            self._countdown = None
            self._await_deselect = False
            self.ack_port.release()
            self.rdata_port.release()
            return
        if not self.select_port.read_bit():
            self._countdown = None
            self._await_deselect = False
        elif not self._await_deselect \
                and self.claims(self.address_port.read_int()):
            # Naive style reads the address and control ports again for
            # the actual access.
            self._advance_transfer(self.address_port.read_int(),
                                   self.rnw_port.read_bit(),
                                   self.be_port.read_int())
        if self.gated:
            self._rearm()

    def _decode_reduced(self) -> None:
        """Section 4.4 style: each port read exactly once per activation."""
        if self.detached or (self._ack_asserted and self._end_acknowledge()):
            return
        if not self.select_port.read_bit():
            self._countdown = None
            self._await_deselect = False
        elif not self._await_deselect:
            address = self.address_port.read_int()
            if self.claims(address):
                self._advance_transfer(address, self.rnw_port.read_bit(),
                                       self.be_port.read_int())
        if self.gated:
            self._rearm()

    def _end_acknowledge(self) -> bool:
        """Release the acknowledge asserted last activation; True when the
        activation ends here (a gated slave)."""
        # Acknowledge lasts exactly one cycle; afterwards this slave stops
        # driving the shared acknowledge/read-data wires entirely so other
        # slaves' responses resolve cleanly.
        self.ack_port.release()
        self.rdata_port.release()
        self._ack_asserted = False
        if self.gated:
            # A gated slave is only woken again for a brand-new transfer,
            # so the completed transfer's select is already history.
            self._await_deselect = False
        return self.gated

    def _rearm(self) -> None:
        """Re-arm a gated slave (latency counting / acknowledge
        deassertion) without being clock sensitive the rest of the time.

        The wake-up lands between clock edges so the acknowledge stays
        visible through the whole edge on which the master and the arbiter
        sample it.
        """
        if self._countdown is not None or self._ack_asserted:
            self.sim.next_trigger(self.clock.period_ps * 3 // 2)

    def _advance_transfer(self, address: int, rnw: bool,
                          byte_enable: int) -> None:
        if self._countdown is None:
            self._countdown = self.latency
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = None
        size = bin(byte_enable).count("1") or 4
        if rnw:
            value = self.target_read(address, size)
            self.rdata_port.write(value)
        else:
            write_value = self.wdata_port.read_int()
            self.target_write(address, write_value, size)
        self.ack_port.write(1)
        self._ack_asserted = True
        self._await_deselect = True

    # -- transport-agnostic access hooks ---------------------------------------------
    # These are the callbacks every bus fabric routes to: the pin-accurate
    # decode process above, and the transaction/functional fabrics of
    # :mod:`repro.bus.transport` directly.  Protocol state (select, ack,
    # countdown) stays out of them on purpose.
    def target_read(self, address: int, size: int) -> int:
        """Perform a read access on behalf of any fabric."""
        self.transactions += 1
        return self.handle_access(address, None, size)

    def target_write(self, address: int, value: int, size: int) -> None:
        """Perform a write access on behalf of any fabric."""
        self.transactions += 1
        self.handle_access(address, value, size)

    def handle_access(self, address: int, write_value: Optional[int],
                      size: int) -> int:
        """Perform the access; return read data (reads) or 0 (writes).

        The default implementation forwards to register-style hooks using
        the word offset from the slave's base address.
        """
        offset = address - self.base_address
        if write_value is None:
            return self.read_register(offset, size)
        self.write_register(offset, write_value, size)
        return 0

    def read_register(self, offset: int, size: int) -> int:
        """Register read hook; subclasses override."""
        return 0

    def write_register(self, offset: int, value: int, size: int) -> None:
        """Register write hook; subclasses override."""

    # -- service ahead of the clock (TLM-2.0 temporal decoupling) -----------
    # A quantum-level master that runs ahead of the kernel clock performs
    # an access itself, through these hooks, when the slave can tell that
    # the access comes out as it would on the per-cycle path; each slave
    # keeps that rule next to the state it reasons about.  The defaults
    # serve nothing: the master ends its warp and the per-cycle path
    # performs the access.
    def warp_serves(self, address: int, value: Optional[int]) -> bool:
        """Whether a running-ahead master may perform this access (a read
        when ``value`` is None) itself; asked before the master checks
        that the transfer fits its bound."""
        return False

    def warp_access(self, address: int, value: Optional[int], size: int,
                    edge_ps: int):
        """Perform an access :meth:`warp_serves` approved.

        ``edge_ps`` is the simulated time the protocol lands the access
        on, ahead of the kernel clock.  Returns the read value, or after a
        store None or one of ``WARP_FLUSH``/``WARP_ACK``; ``WARP_RETRY``
        performs nothing.
        """
        if value is None:
            return self.target_read(address, size)
        self.target_write(address, value, size)
        return None

    def trace_conditions(self, address: int, size: int, store: bool):
        """Names of the properties that let a compiled ISS trace perform
        this access itself (``()`` for none), or None when the trace has
        to end in front of it; see :mod:`repro.iss.trace`."""
        return None

    # -- checkpoint / restore ----------------------------------------------------
    def capture_state(self) -> dict:
        """Transaction counter; register peripherals override and extend."""
        return {"transactions": self.transactions}

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`capture_state` output."""
        self.transactions = state["transactions"]

    # -- dispatcher support (sections 5.1 / 5.2) -----------------------------------
    def detach(self) -> None:
        """Detach from the bus (the dispatcher now owns this peripheral)."""
        self.detached = True

    def attach(self) -> None:
        """Re-attach to the bus."""
        self.detached = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}({self.name!r}, "
                f"base={self.base_address:#010x}, size={self.size:#x})")


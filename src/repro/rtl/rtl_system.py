"""The RTL HDL baseline: a register-transfer-level VanillaNet model.

This model reproduces the *simulation cost structure* of the ModelSim RTL
simulation of the EDK-generated netlist (Figure 2, leftmost bar):

* every architectural and micro-architectural register is its own clocked
  process built from :class:`~repro.rtl.primitives.RtlRegister` with
  resolved multi-valued vectors on every connection,
* every peripheral register and every peripheral address decoder is its own
  per-cycle process,
* the processor executes through a multi-cycle fetch / decode / execute /
  memory / write-back state machine, so CPI is higher than the pin-accurate
  SystemC model's, and
* nothing is conditional on activity -- all of it is scheduled every cycle.

Instruction *semantics* are delegated to the same
:class:`~repro.iss.core.MicroBlazeCore` used everywhere else (see DESIGN.md,
substitutions): what the Figure 2 RTL bar measures is how slowly this
structure simulates, not a re-verification of the MicroBlaze netlist, and
delegating semantics keeps the architectural results identical across
models, which is what lets the experiments compare like with like.
"""

from __future__ import annotations

from typing import Optional

from ..isa.assembler import Program
from ..iss.core import MicroBlazeCore
from ..kernel.component import SimComponent
from ..kernel.module import Module
from ..kernel.engine import (ENGINE_GENERIC, SimulationEngine,
                             create_engine)
from ..kernel.simtime import SimTime
from ..peripherals.memory import MemoryMap, MemoryStorage
from ..platform import memory_map as mm
from ..signals import Clock, ResolvedSignal
from .primitives import RtlCombinational, RtlRegister

#: Cycles spent in each state of the multi-cycle execution FSM.
FETCH_CYCLES = 4
DECODE_CYCLES = 1
EXECUTE_CYCLES = 1
MEMORY_CYCLES = 4
WRITEBACK_CYCLES = 1

#: Peripheral register inventory expanded at RTL (name -> register count).
_PERIPHERAL_REGISTERS = {
    "console_uart": 4,
    "debug_uart": 4,
    "timer": 3,
    "intc": 6,
    "gpio": 2,
    "ethernet": 6,
    "sdram_ctrl": 4,
    "sram_ctrl": 2,
    "flash_ctrl": 2,
}


#: Default number of additional netlist flip-flop processes modelling the
#: MicroBlaze datapath, pipeline and bus-interface registers that the EDK
#: netlist contains beyond the architectural state.  The real netlist has
#: thousands; this default keeps a Python-hosted RTL simulation usable while
#: still making the RTL bar orders of magnitude slower than the SystemC-style
#: models (the remaining scale gap is documented in EXPERIMENTS.md).
DEFAULT_NETLIST_SHADOW_REGISTERS = 224


class RtlVanillaNetSystem(SimComponent):
    """RTL-structured model of the platform running a bare-metal program."""

    def __init__(self, sim: Optional[SimulationEngine] = None,
                 clock_period: SimTime = SimTime.ns(10),
                 netlist_shadow_registers: int =
                 DEFAULT_NETLIST_SHADOW_REGISTERS,
                 engine: str = ENGINE_GENERIC) -> None:
        self.sim = sim if sim is not None \
            else create_engine(engine, "rtl_vanillanet")
        self.netlist_shadow_registers = netlist_shadow_registers
        self.clock = Clock(self.sim, "rtl_clk", clock_period)
        self.memory = MemoryMap([
            MemoryStorage("bram", mm.BRAM_BASE, mm.BRAM_SIZE),
            MemoryStorage("sdram", mm.SDRAM_BASE, 0x10000),
            MemoryStorage("sram", mm.SRAM_BASE, 0x10000),
        ])
        self.core = MicroBlazeCore(fetch=self._fetch, load=self._load,
                                   store=self._store)
        self._build_datapath()
        self._build_peripheral_shadow()
        self.control = _RtlControlFsm(self.sim, "control", self.clock, self)
        self.halt_address: Optional[int] = None
        self.console_bytes: list[int] = []

    # -- structure ------------------------------------------------------------
    def _build_datapath(self) -> None:
        sim, clock = self.sim, self.clock
        #: The 32-entry register file: one RTL register (= one process) each.
        self.register_file = [RtlRegister(sim, f"rf.r{i}", clock)
                              for i in range(32)]
        self.pc_register = RtlRegister(sim, "pc", clock)
        self.ir_register = RtlRegister(sim, "ir", clock)
        self.msr_register = RtlRegister(sim, "msr", clock)
        self.mar_register = RtlRegister(sim, "mar", clock)
        self.mdr_register = RtlRegister(sim, "mdr", clock)
        self.state_register = RtlRegister(sim, "fsm_state", clock, width=4)
        # ALU and next-PC logic as per-cycle combinational blocks.
        self.alu_out = ResolvedSignal(sim, "alu_out", 32)
        self.next_pc = ResolvedSignal(sim, "next_pc", 32)
        self.alu = RtlCombinational(
            sim, "alu", clock,
            inputs=[self.ir_register.q, self.mdr_register.q],
            output=self.alu_out,
            function=lambda values: (values[0] + values[1]) & 0xFFFF_FFFF)
        self.pc_incrementer = RtlCombinational(
            sim, "pc_incr", clock,
            inputs=[self.pc_register.q],
            output=self.next_pc,
            function=lambda values: (values[0] + 4) & 0xFFFF_FFFF)

        # Netlist flip-flops beyond the architectural state: pipeline
        # registers, bus-interface registers, FIFO pointers and similar.
        # Each one is a separate clocked process on resolved signals, which
        # is precisely what makes netlist-level simulation slow.
        self.netlist_registers = []
        for index in range(self.netlist_shadow_registers):
            register = RtlRegister(sim, f"netlist.ff{index}", clock,
                                   width=8)
            register.enable.write(1, driver=self)
            register.d.write(index & 0xFF, driver=self)
            self.netlist_registers.append(register)

    def _build_peripheral_shadow(self) -> None:
        """Per-register and per-decoder processes for every peripheral."""
        sim, clock = self.sim, self.clock
        self.peripheral_registers: dict[str, list[RtlRegister]] = {}
        self.address_decoders: list[RtlCombinational] = []
        for peripheral, count in _PERIPHERAL_REGISTERS.items():
            registers = [RtlRegister(sim, f"{peripheral}.reg{i}", clock)
                         for i in range(count)]
            self.peripheral_registers[peripheral] = registers
            select = ResolvedSignal(sim, f"{peripheral}.select", 1)
            decoder = RtlCombinational(
                sim, f"{peripheral}.decoder", clock,
                inputs=[self.mar_register.q],
                output=select,
                function=self._make_decoder(peripheral))
            self.address_decoders.append(decoder)

    @staticmethod
    def _make_decoder(peripheral: str):
        bases = {
            "console_uart": mm.CONSOLE_UART_BASE,
            "debug_uart": mm.DEBUG_UART_BASE,
            "timer": mm.TIMER_BASE,
            "intc": mm.INTC_BASE,
            "gpio": mm.GPIO_BASE,
            "ethernet": mm.ETHERNET_BASE,
            "sdram_ctrl": mm.SDRAM_BASE,
            "sram_ctrl": mm.SRAM_BASE,
            "flash_ctrl": mm.FLASH_BASE,
        }
        base = bases[peripheral]

        def decode(values: list[int]) -> int:
            return 1 if base <= values[0] < base + 0x1000 else 0

        return decode

    # -- memory interface of the semantic core -----------------------------------
    def _fetch(self, address: int) -> int:
        return self.memory.read(address, 4)

    def _load(self, address: int, size: int) -> int:
        if mm.CONSOLE_UART_BASE <= address < mm.CONSOLE_UART_BASE + 0x100:
            offset = address - mm.CONSOLE_UART_BASE
            return 0x04 if offset == 0x8 else 0       # TX always empty
        return self.memory.read(address, size)

    def _store(self, address: int, value: int, size: int) -> None:
        if mm.CONSOLE_UART_BASE <= address < mm.CONSOLE_UART_BASE + 0x100:
            if address - mm.CONSOLE_UART_BASE == 0x4:
                self.console_bytes.append(value & 0xFF)
            return
        self.memory.write(address, value, size)

    # -- software ---------------------------------------------------------------------
    def load_program(self, program: Program,
                     halt_symbol: str = "_halt") -> None:
        """Load a program (BRAM-resident 'simpler program' class)."""
        self.memory.load_program(program)
        self.core.pc = program.entry_point
        self.core.stats.attach_symbols(program.symbols)
        self.core.clear_decoded_cache()
        self.halt_address = program.symbols.get(halt_symbol)

    # -- execution ----------------------------------------------------------------------
    def run_cycles(self, cycles: int) -> int:
        """Advance the RTL simulation by ``cycles`` clock cycles."""
        self.sim.run(SimTime(self.clock.period_ps * cycles))
        return self.clock.cycles

    def run_until_halt(self, max_cycles: int = 200_000,
                       chunk_cycles: int = 1_000) -> bool:
        """Run until the program's halt label is reached."""
        start = self.clock.cycles
        while not self.finished and self.clock.cycles - start < max_cycles:
            self.run_cycles(chunk_cycles)
        return self.finished

    @property
    def finished(self) -> bool:
        """True when the PC sits at the halt label."""
        return (self.halt_address is not None
                and self.core.pc == self.halt_address
                and not self.core.in_delay_slot)

    @property
    def cycle_count(self) -> int:
        """Simulated clock cycles so far."""
        return self.clock.cycles

    @property
    def console_output(self) -> str:
        """Characters written to the console UART data register."""
        return "".join(chr(b) for b in self.console_bytes)

    def process_count(self) -> int:
        """Number of RTL processes (registers + combinational blocks)."""
        return self.sim.process_count()

    # -- state protocol ------------------------------------------------------
    def capture_state(self) -> dict:
        return {"console_bytes": list(self.console_bytes)}

    def restore_state(self, state: dict) -> None:
        self.console_bytes[:] = state["console_bytes"]

    def state_children(self) -> dict:
        """Every stateful piece of the netlist-structured model.

        The RTL baseline has no snapshot/restore workflow (it is only
        ever measured from reset), but implementing the component-state
        protocol keeps it walkable by the same tooling as the SystemC
        platforms.
        """
        children: dict = {"clock": self.clock, "memory": self.memory,
                          "core": self.core, "control": self.control,
                          "pc": self.pc_register, "ir": self.ir_register,
                          "msr": self.msr_register, "mar": self.mar_register,
                          "mdr": self.mdr_register,
                          "fsm_state": self.state_register,
                          "alu": self.alu, "pc_incr": self.pc_incrementer}
        for index, register in enumerate(self.register_file):
            children[f"rf.r{index}"] = register
        for index, register in enumerate(self.netlist_registers):
            children[f"netlist.ff{index}"] = register
        for peripheral, registers in self.peripheral_registers.items():
            for index, register in enumerate(registers):
                children[f"{peripheral}.reg{index}"] = register
        for index, decoder in enumerate(self.address_decoders):
            children[f"decoder{index}"] = decoder
        return children


class _RtlControlFsm(Module, SimComponent):
    """The multi-cycle fetch/decode/execute/memory/write-back controller."""

    STATE_FETCH = 0
    STATE_DECODE = 1
    STATE_EXECUTE = 2
    STATE_MEMORY = 3
    STATE_WRITEBACK = 4

    def __init__(self, sim: SimulationEngine, name: str, clock,
                 system: RtlVanillaNetSystem) -> None:
        super().__init__(sim, name)
        self.system = system
        self._state = self.STATE_FETCH
        self._wait = FETCH_CYCLES
        #: The decoded entry in flight and its effective address.
        self._pending = None
        self._address = 0
        #: Retired instructions (matches the semantic core's statistics).
        self.instructions_retired = 0
        self.sc_method(self._tick, sensitive=[clock.posedge_event()],
                       dont_initialize=True, name="fsm")

    def _tick(self) -> None:
        system = self.system
        if system.finished:
            return
        self._wait -= 1
        system.state_register.load(self._state)
        if self._wait > 0:
            return
        if self._state == self.STATE_FETCH:
            pc = system.core.pc
            word = system.memory.read(pc, 4)
            system.ir_register.load(word)
            system.pc_register.load(pc)
            self._pending = system.core.entry_for(pc, word)
            self._enter(self.STATE_DECODE, DECODE_CYCLES)
        elif self._state == self.STATE_DECODE:
            self._enter(self.STATE_EXECUTE, EXECUTE_CYCLES)
        elif self._state == self.STATE_EXECUTE:
            pending = self._pending
            if pending is not None and (pending.is_load or pending.is_store):
                self._address = system.core.preview_effective_address(
                    pending.instruction)
                system.mar_register.load(self._address)
                self._enter(self.STATE_MEMORY, MEMORY_CYCLES)
            else:
                self._enter(self.STATE_WRITEBACK, WRITEBACK_CYCLES)
        elif self._state == self.STATE_MEMORY:
            self._enter(self.STATE_WRITEBACK, WRITEBACK_CYCLES)
        else:  # WRITEBACK: commit the architectural effect
            entry = system.core.step()
            memory = entry.is_load or entry.is_store
            self.instructions_retired += 1
            system.core.stats.add_cycles(
                FETCH_CYCLES + DECODE_CYCLES + EXECUTE_CYCLES
                + WRITEBACK_CYCLES + (MEMORY_CYCLES if memory else 0))
            destination = entry.instruction.rd
            if 0 < destination < 32:
                system.register_file[destination].load(
                    system.core.regs.read(destination))
            system.pc_register.load(system.core.pc)
            system.msr_register.load(system.core.msr.value)
            if memory:
                system.mdr_register.load(self._address)
            self._enter(self.STATE_FETCH, FETCH_CYCLES)

    def _enter(self, state: int, wait: int) -> None:
        self._state = state
        self._wait = wait

    # -- state protocol ------------------------------------------------------
    def capture_state(self) -> dict:
        """FSM position and retirement counter.

        Only meaningful between instructions (``STATE_FETCH``): the
        in-flight decoded entry holds a bound handler and is rebuilt by
        the next fetch rather than serialized.
        """
        return {"state": self._state, "wait": self._wait,
                "instructions_retired": self.instructions_retired}

    def restore_state(self, state: dict) -> None:
        self._state = state["state"]
        self._wait = state["wait"]
        self.instructions_retired = state["instructions_retired"]

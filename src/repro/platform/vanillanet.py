"""The MicroBlaze VanillaNet platform assembled as a SystemC-style model.

:class:`VanillaNetPlatform` builds the full system of the paper's Figure 1
-- MicroBlaze, LMB BRAM, OPB with SDRAM / SRAM / FLASH, two UARTs, timer,
interrupt controller, GPIO and the Ethernet MAC proxy -- according to a
:class:`~repro.platform.config.ModelConfig`.  All eleven Figure 2 model
styles (except the RTL baseline, see :mod:`repro.rtl`) are different
configurations of this one platform class, and the non-cycle-accurate
optimisations can additionally be toggled while the simulation is running.
"""

from __future__ import annotations

from typing import Optional

from ..bus import (BUS_SIGNAL, DATA_MASTER, INSTRUCTION_MASTER,
                   LocalMemoryBus, OpbArbiter, OpbInterconnect,
                   OpbMasterPort, SignalFabric, WarpParticipant,
                   create_fabric)
from ..isa.assembler import Program
from ..iss import (CPU_QUANTUM, InvalidatingDirectMemory,
                   KernelFunctionInterceptor, MicroBlazeWrapper)
from ..kernel import Module, SimComponent, SimulationEngine, create_engine
from ..kernel.simtime import SimTime
from ..peripherals import (ConsoleSink, EthernetMacProxy, FlashController,
                           Gpio, InterruptController, MemoryDispatcher,
                           MemoryMap, MemoryStorage, OpbTimer,
                           SdramController, SramController, UartLite)
from ..signals import Clock
from ..tracing import Tracer
from .config import ModelConfig
from . import memory_map as mm
from . import snapshot as _snapshot


class VanillaNetPlatform(SimComponent):
    """The complete target system, built per :class:`ModelConfig`."""

    def __init__(self, config: Optional[ModelConfig] = None,
                 sim: Optional[SimulationEngine] = None) -> None:
        self.config = config if config is not None else ModelConfig()
        self.sim = sim if sim is not None else create_engine(
            self.config.engine, f"vanillanet[{self.config.name}]")
        self._build()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        config = self.config
        sim = self.sim
        self.clock = Clock(sim, "sys_clk", config.clock_period)
        self.interconnect = OpbInterconnect.create(sim, config.data_mode)
        # On the signal-level fabric every slave runs its pin-accurate
        # decode process; the transaction/functional fabrics route accesses
        # to the slaves' target hooks arithmetically, so no decode process
        # (and no arbiter) is registered at all.
        signal_level = config.bus_level == BUS_SIGNAL

        # -- memories --------------------------------------------------------
        self.bram = MemoryStorage("bram", mm.BRAM_BASE, mm.BRAM_SIZE)
        self.lmb = LocalMemoryBus(self.bram)
        slave_options = dict(
            use_method=True,
            reduced_port_reading=config.reduced_port_reading,
            register_process=signal_level,
        )
        self.sdram = SdramController(sim, "sdram", mm.SDRAM_BASE,
                                     mm.SDRAM_SIZE, self.interconnect,
                                     self.clock, **slave_options)
        self.sram = SramController(sim, "sram", mm.SRAM_BASE, mm.SRAM_SIZE,
                                   self.interconnect, self.clock,
                                   **slave_options)
        self.flash = FlashController(sim, "flash", mm.FLASH_BASE,
                                     mm.FLASH_SIZE, self.interconnect,
                                     self.clock,
                                     gated=config.gate_rare_peripherals,
                                     **slave_options)

        # -- peripherals ------------------------------------------------------
        self.console = ConsoleSink()
        self.console_uart = UartLite(
            sim, "console_uart", mm.CONSOLE_UART_BASE, self.interconnect,
            self.clock, console=self.console,
            tx_sleep_cycles=config.uart_tx_sleep_cycles, **slave_options)
        self.debug_console = ConsoleSink()
        self.debug_uart = UartLite(
            sim, "debug_uart", mm.DEBUG_UART_BASE, self.interconnect,
            self.clock, console=self.debug_console,
            tx_sleep_cycles=config.uart_tx_sleep_cycles, **slave_options)
        self.timer = OpbTimer(sim, "timer", mm.TIMER_BASE, self.interconnect,
                              self.clock,
                              use_method=config.use_methods,
                              count_process=not config.combined_processes,
                              reduced_port_reading=
                              config.reduced_port_reading,
                              register_process=signal_level)
        self.intc = InterruptController(
            sim, "intc", mm.INTC_BASE, self.interconnect, self.clock,
            use_method=config.use_methods,
            poll_process=not config.combined_processes,
            reduced_port_reading=config.reduced_port_reading,
            register_process=signal_level)
        self.gpio = Gpio(sim, "gpio", mm.GPIO_BASE, self.interconnect,
                         self.clock, gated=config.gate_rare_peripherals,
                         **slave_options)
        self.ethernet = EthernetMacProxy(
            sim, "ethernet", mm.ETHERNET_BASE, self.interconnect, self.clock,
            gated=config.gate_rare_peripherals, **slave_options)

        # -- bus ----------------------------------------------------------------
        # The arbiter exists only at signal level; the other fabrics
        # compute arbitration arithmetically inside the transport.
        self.arbiter: Optional[OpbArbiter] = None
        if signal_level:
            self.arbiter = OpbArbiter(
                sim, "opb_arbiter", self.interconnect, self.clock,
                use_method=config.use_methods,
                gate_rare_slaves=config.gate_rare_peripherals,
                register_process=not config.combined_processes)
            if config.gate_rare_peripherals:
                for slave in (self.flash, self.gpio, self.ethernet):
                    self.arbiter.register_gated_slave(slave.base_address,
                                                      slave.size,
                                                      slave.wake_event)

        # -- interrupt wiring ------------------------------------------------------
        self.intc.connect_input(mm.IRQ_TIMER, self.timer.interrupt)
        self.intc.connect_input(mm.IRQ_CONSOLE_UART,
                                self.console_uart.interrupt)
        self.intc.connect_input(mm.IRQ_ETHERNET, self.ethernet.interrupt)
        self.intc.connect_input(mm.IRQ_DEBUG_UART, self.debug_uart.interrupt)

        # -- combined synchronous process (section 4.5.1) ----------------------------
        if config.combined_processes:
            self._combined = _CombinedSynchronousLogic(
                sim, "combined_sync", self.clock, self.timer, self.intc,
                self.arbiter)
        else:
            self._combined = None

        # -- flat memory view, dispatcher, interception ---------------------------------
        self.memory_map = MemoryMap([self.bram, self.sdram.storage,
                                     self.sram.storage, self.flash.storage])
        self.dispatcher = MemoryDispatcher(
            self.memory_map,
            handle_instruction_fetches=config.suppress_instruction_memory,
            handle_main_memory=False)
        self.dispatcher.attach_main_memory_slave(self.sdram)
        if config.suppress_main_memory:
            self.dispatcher.enable_main_memory(True)
        self.interceptor = KernelFunctionInterceptor(
            self.memory_map, enabled=config.kernel_function_capture)

        # -- the bus fabric ----------------------------------------------------------------
        self.instruction_port: Optional[OpbMasterPort] = None
        self.data_port: Optional[OpbMasterPort] = None
        if signal_level:
            self.instruction_port = OpbMasterPort(
                "imaster", self.interconnect.instruction_master,
                self.interconnect.bus, master_id=INSTRUCTION_MASTER)
            self.data_port = OpbMasterPort(
                "dmaster", self.interconnect.data_master,
                self.interconnect.bus, master_id=DATA_MASTER)
            self.bus_fabric = SignalFabric(self.instruction_port,
                                           self.data_port,
                                           arbiter=self.arbiter)
        else:
            self.bus_fabric = create_fabric(config.bus_level,
                                            clock=self.clock)
        for slave in (self.sdram, self.sram, self.flash, self.console_uart,
                      self.debug_uart, self.timer, self.intc, self.gpio,
                      self.ethernet):
            self.bus_fabric.register_slave(slave)

        # -- the processor -----------------------------------------------------------------
        self.microblaze = MicroBlazeWrapper(
            sim, "microblaze", self.clock,
            transport=self.bus_fabric,
            lmb=self.lmb,
            dispatcher=self.dispatcher,
            interceptor=self.interceptor,
            interrupt_signal=self.intc.irq,
            reset_pc=mm.BRAM_BASE)
        # Interceptor writes bypass the buses; route them through the
        # decoded-cache invalidating adapter so a natively-executed memcpy
        # into code stays SMC-safe at every cpu level.
        self.interceptor.memory = InvalidatingDirectMemory(
            self.memory_map, self.microblaze.core)
        # The CPU is the only master that can reach TX_GO; naming it lets
        # a link fabric chain peer delivery horizons off its decoupled
        # position (no-op on single-node platforms, which never link).
        self.ethernet.tx_master = self.microblaze
        if config.cpu_level == CPU_QUANTUM:
            participants = [self.intc, self.console_uart, self.debug_uart,
                            self.timer, self.ethernet]
            if self._combined is not None:
                participants.append(self._combined)
            self.microblaze.enable_quantum(
                participants,
                quantum_instructions=config.quantum_instructions)

        # -- tracing -----------------------------------------------------------------------
        self.tracer: Optional[Tracer] = None
        if config.trace_enabled:
            self.tracer = Tracer(sim, poll_event=self.clock.default_event())
            # Trace what a waveform debug session would trace: the clock,
            # every OPB signal, and the interrupt tree.  The clock alone
            # contributes two value changes per cycle, which is a large part
            # of why tracing costs so much (Figure 2, bar 1 vs bar 2).
            self.tracer.trace(self.clock, "sys_clk", 1)
            for name, signal in self.interconnect.all_signals().items():
                width = 32 if "address" in name or "data" in name else 1
                self.tracer.trace(signal, f"opb.{name}", width)
            self.tracer.trace(self.intc.irq, "intc.irq", 1)
            for peripheral_name, peripheral in (
                    ("timer", self.timer), ("console_uart", self.console_uart),
                    ("debug_uart", self.debug_uart),
                    ("ethernet", self.ethernet)):
                self.tracer.trace(peripheral.interrupt,
                                  f"{peripheral_name}.interrupt", 1)

        self.program: Optional[Program] = None

    # ------------------------------------------------------------------ #
    # software loading
    # ------------------------------------------------------------------ #
    def load_program(self, program: Program,
                     halt_symbol: str = "_halt") -> None:
        """Load an assembled program, attach symbols and set the halt point."""
        self.program = program
        self.memory_map.load_program(program)
        self.microblaze.core.stats.attach_symbols(program.symbols)
        self.microblaze.core.clear_decoded_cache()
        self.microblaze.core.pc = program.entry_point
        halt_address = program.symbols.get(halt_symbol)
        self.microblaze.set_halt_address(halt_address)
        self.interceptor.register_standard_functions(program.symbols)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run_cycles(self, cycles: int) -> int:
        """Advance the simulation by ``cycles`` bus clock cycles."""
        self.sim.run(SimTime(self.clock.period_ps * cycles))
        return self.clock.cycles

    def run_until_halt(self, max_cycles: int = 1_000_000,
                       chunk_cycles: int = 2_000) -> bool:
        """Run until the loaded program reaches its halt point.

        Returns True when the halt point was reached within ``max_cycles``.
        """
        start = self.clock.cycles
        while not self.microblaze.finished \
                and self.clock.cycles - start < max_cycles:
            remaining = max_cycles - (self.clock.cycles - start)
            self.run_cycles(min(chunk_cycles, remaining))
        return self.microblaze.finished

    def run_instructions(self, budget: int,
                         max_cycles: int = 5_000_000,
                         chunk_cycles: int = 2_000) -> int:
        """Run until ``budget`` further instructions have retired.

        Returns the number of clock cycles that elapsed.
        """
        self.microblaze.set_instruction_budget(budget)
        start = self.clock.cycles
        while not self.microblaze.finished \
                and self.clock.cycles - start < max_cycles:
            self.run_cycles(chunk_cycles)
        self.microblaze.set_instruction_budget(None)
        return self.clock.cycles - start

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #
    def save_snapshot(self, variant: Optional[str] = None):
        """Snapshot the parked platform state as plain picklable data.

        Call right after :meth:`run_instructions` (or a cycle-bounded
        run) returned; see :mod:`repro.platform.snapshot`.
        """
        return _snapshot.capture_snapshot(self, variant=variant)

    def restore_snapshot(self, snapshot) -> None:
        """Restore a :func:`save_snapshot` state into this fresh platform.

        Requires :meth:`load_program` to have been called with the same
        program the snapshot was taken from, and the simulation to never
        have run.
        """
        _snapshot.restore_snapshot(self, snapshot)

    def state_children(self) -> dict:
        """The platform's component-state tree (see :mod:`..kernel.component`).

        Ordered so that a restore walk re-arms timed waits the way a parked
        capture left them: clock first, then memories, the processor, the
        peripherals (each followed by its own interrupt signal), and the
        bus-level-scoped interconnect / fabric / tracer last.  Children
        that exist only in some configurations (arbiter, master ports,
        tracer) are simply absent elsewhere; the name-matched tree walk
        skips them on cross-configuration restores.
        """
        children = {
            "clock": self.clock,
            "lmb": self.lmb,
            "sdram": self.sdram,
            "sram": self.sram,
            "flash": self.flash,
            "microblaze": self.microblaze,
            "console_uart": self.console_uart,
            "debug_uart": self.debug_uart,
            "timer": self.timer,
            "intc": self.intc,
            "gpio": self.gpio,
            "ethernet": self.ethernet,
            "dispatcher": self.dispatcher,
            "interconnect": self.interconnect,
            "fabric": self.bus_fabric,
        }
        if self.arbiter is not None:
            children["arbiter"] = self.arbiter
        if self.instruction_port is not None:
            children["instruction_port"] = self.instruction_port
            children["data_port"] = self.data_port
        if self.tracer is not None:
            children["tracer"] = self.tracer
        return children

    # ------------------------------------------------------------------ #
    # run-time optimisation toggles (paper section 5)
    # ------------------------------------------------------------------ #
    def set_instruction_memory_suppression(self, enabled: bool) -> None:
        """Toggle dispatcher-served instruction fetches at run time."""
        self.dispatcher.enable_instruction_fetches(enabled)
        self.microblaze.bump_route_epoch()

    def set_main_memory_suppression(self, enabled: bool) -> None:
        """Toggle dispatcher ownership of the SDRAM at run time."""
        self.dispatcher.enable_main_memory(enabled)
        self.microblaze.bump_route_epoch()

    def set_kernel_function_capture(self, enabled: bool) -> None:
        """Toggle memset/memcpy interception at run time."""
        if enabled:
            self.interceptor.enable()
        else:
            self.interceptor.disable()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    @property
    def cycle_count(self) -> int:
        """Simulated bus clock cycles so far."""
        return self.clock.cycles

    @property
    def console_output(self) -> str:
        """Everything printed to the console UART so far."""
        return self.console.text

    @property
    def statistics(self):
        """The ISS execution statistics."""
        return self.microblaze.core.stats

    def process_count(self) -> int:
        """Number of simulation processes in the model."""
        return self.sim.process_count()

    def architectural_state(self) -> dict[str, int]:
        """Registers + PC + MSR, for accuracy-contract comparisons."""
        return self.microblaze.core.register_state()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"VanillaNetPlatform(config={self.config.name!r}, "
                f"cycles={self.cycle_count})")


class _CombinedSynchronousLogic(Module, WarpParticipant):
    """Section 4.5.1: three synchronous processes folded into one.

    The timer count, interrupt-controller poll and bus arbitration run as
    plain function calls from a single method process instead of three
    separately scheduled processes.  The call order is chosen so behaviour
    is identical to the separate-process version regardless of signal data
    mode (the paper's Listing 2 discussion).  On the transaction/functional
    bus fabrics there is no arbiter (arbitration is computed inside the
    transport), so only the timer and interrupt-controller work remains.
    """

    def __init__(self, sim: SimulationEngine, name: str, clock, timer,
                 intc, arbiter=None) -> None:
        super().__init__(sim, name)
        self.timer = timer
        self.intc = intc
        self.arbiter = arbiter
        self.warp_processes = (self.sc_method(
            self._combined_tick, sensitive=[clock.posedge_event()],
            dont_initialize=True),)

    def _combined_tick(self) -> None:
        self.timer.tick()
        self.intc.poll_inputs()
        if self.arbiter is not None:
            self.arbiter.arbitrate()

"""SystemC-style wrapper around the MicroBlaze ISS.

This is the pin/cycle-accurate ``sc_module`` of the paper's section 4: the
ISS itself is "standard C++" (here: :class:`~repro.iss.core.MicroBlazeCore`)
and only the component interface -- the OPB master ports, the LMB port and
the interrupt input -- lives in the simulation kernel's world.

Per instruction, the wrapper:

1. optionally lets the kernel-function interceptor replace a whole call to
   ``memset``/``memcpy`` with a zero-time native execution (section 5.4);
2. fetches the instruction word, via the LMB (1 cycle), the memory
   dispatcher (1 cycle, section 5.1) or a full OPB transfer (>= 3 cycles);
3. pre-executes any data access the decoded instruction needs, again via
   LMB / dispatcher / OPB (section 5.2 decides which);
4. lets the core execute the instruction in zero simulation time -- "multi
   cycle operation can be carried out in zero simulation time and then the
   result delayed for required amount of cycles".

Every routing decision can change between instructions, which is what makes
the non-cycle-accurate optimisations run-time switchable.

OPB traffic is issued through the :class:`~repro.bus.transport.BusTransport`
seam: the wrapper never drives master signals itself, so the same wrapper
runs unchanged on the pin-accurate signal fabric, the transaction-level
fabric and the functional fabric.
"""

from __future__ import annotations

from typing import Optional

from ..bus.lmb import LMB_ACCESS_CYCLES, LocalMemoryBus
from ..bus.opb import DATA_MASTER, INSTRUCTION_MASTER
from ..bus.transport import (ACK_TO_MASTER_CYCLES, BUS_FUNCTIONAL,
                             BUS_TRANSACTION, REQUEST_TO_GRANT_CYCLES,
                             BusTransport, protocol_transfer_cycles)
from ..datatypes import WORD_MASK
from ..kernel.component import SimComponent
from ..kernel.errors import ModelError
from ..kernel.module import Module
from ..kernel.engine import SimulationEngine
from ..peripherals.dispatcher import MemoryDispatcher
from ..signals import Signal
from .core import MicroBlazeCore
from .interception import KernelFunctionInterceptor
from . import trace as _trace
from .trace import (IE_SETTING_MNEMONICS, DeviceRegion, TraceRegion,
                    compile_trace)

#: Cycles accounted for vectoring to the interrupt handler.
INTERRUPT_ENTRY_CYCLES = 2

#: Cycle cost of a dispatcher-served access (hoisted for the warp loop).
DISPATCHER_ACCESS_CYCLES = MemoryDispatcher.ACCESS_CYCLES

#: Sentinel returned by the in-warp peripheral access helpers when the
#: access only has to wait for the link's delivery horizon to advance:
#: the warp flushes the current sub-burst and retries the instruction.
_WARP_RETRY = object()

#: CPU abstraction-level selectors (``ModelConfig.cpu_level``), mirroring
#: the ``engine`` and ``bus_level`` seams.  ``"cycle"`` is the per-cycle
#: execute thread below; ``"quantum"`` adds the temporally-decoupled fast
#: path (decoded-instruction cache + time-quantum execution).
CPU_CYCLE = "cycle"
CPU_QUANTUM = "quantum"


def cpu_levels() -> tuple[str, ...]:
    """All CPU abstraction-level selector names."""
    return (CPU_CYCLE, CPU_QUANTUM)


class QuantumContext:
    """Everything the time-quantum fast path must observe and control.

    The warp may only run while the platform is *quiescent*: every process
    statically sensitive to the clock's rising edge is one the warp knows
    how to detach and reconcile (the ISS execute thread itself, the UART
    transmit threads, and the timer/interrupt-controller tick processes
    passed as ``extra_processes``), and no interrupt can be in flight.
    ``blocked`` latches permanently when an unknown edge-sensitive process
    exists (tracer, pin-level slave decoders, arbiter): the platform then
    simply stays on the per-cycle path.

    ``ethernet`` *bounds* the warp dynamically while a network link is
    attached to the MAC.  The link's fixed positive latency is a
    conservative lookahead: ``earliest_delivery_ps`` is the soonest any
    cross-node frame can reach this node, so bursts run freely up to (but
    never across) that horizon.  While the MAC's RX interrupt is enabled
    the horizon caps every burst -- a delivery still interrupts on
    exactly the cycle the per-cycle path would take it on; while it is
    disabled only RX-observing register accesses are pinned behind the
    horizon.  A platform whose MAC is never linked keeps the unbounded
    fast path.
    """

    def __init__(self, clock, uarts=(), timer=None, intc=None,
                 extra_processes=(), ethernet=None) -> None:
        self.clock = clock
        self.uarts = tuple(uarts)
        self.timer = timer
        self.intc = intc
        self.ethernet = ethernet
        self.extra_processes = tuple(
            process for process in extra_processes if process is not None)
        #: Latched when the platform can structurally never warp.
        self.blocked = False
        #: The full set of detachable processes (filled by enable_quantum).
        self.known_processes: set = set()


class MicroBlazeWrapper(Module, SimComponent):
    """Cycle-accurate MicroBlaze: ISS core plus bus interface processes."""

    def __init__(self, sim: SimulationEngine, name: str, clock,
                 transport: BusTransport,
                 lmb: Optional[LocalMemoryBus] = None,
                 dispatcher: Optional[MemoryDispatcher] = None,
                 interceptor: Optional[KernelFunctionInterceptor] = None,
                 interrupt_signal: Optional[Signal] = None,
                 reset_pc: int = 0) -> None:
        super().__init__(sim, name)
        self.clock = clock
        self.transport = transport
        self.lmb = lmb
        self.dispatcher = dispatcher
        self.interceptor = interceptor
        self.core = MicroBlazeCore(fetch=self._serve_fetch,
                                   load=self._serve_load,
                                   store=self._capture_store,
                                   reset_pc=reset_pc)
        #: Address that stops execution when the PC reaches it.
        self.halt_address: Optional[int] = None
        #: Optional cap on retired instructions (benchmark budgets).
        self.max_instructions: Optional[int] = None
        self.finished = False
        #: Invoked (no arguments) when execution transitions to finished
        #: -- a drained budget or the halt address.  A multi-node platform
        #: hooks this to stop the kernel once every node is done instead
        #: of simulating idle cycles to the next chunk boundary.
        self.finish_callback = None
        #: CPU abstraction level ("cycle" until enable_quantum is called).
        self.cpu_level = CPU_CYCLE
        #: While the execute thread is parked inside a warp this is the
        #: simulated time it will resume on: a promise that this master
        #: initiates no bus activity (in particular no ``TX_GO``) at any
        #: earlier time.  ``None`` whenever no such promise holds; the
        #: link fabric folds it into peers' delivery horizons.
        self.decoupled_until_ps: Optional[int] = None
        #: Instructions per time quantum when temporally decoupled.
        self.quantum_instructions = 1024
        self._quantum: Optional[QuantumContext] = None
        #: Bumped whenever instruction routing may have changed (memory
        #: suppression toggles); stale per-entry fetch timings re-route.
        self._route_epoch = 0
        self._fetched_word = 0
        self._load_value = 0
        self._instruction_cycles = 0
        #: Deferred action requested by an in-warp device access, applied
        #: by the burst loop after the instruction retires: ``"flush"``
        #: (surface at the horizon before continuing) or ``"ack"`` (an
        #: interrupt acknowledge landed; drop the IE guard).
        self._warp_post = None
        self.main_process = self.sc_thread(
            self._execute_thread, sensitive=[clock.posedge_event()],
            name="execute")
        if interrupt_signal is not None:
            self.interrupt_signal = interrupt_signal
            self.sc_method(self._sample_interrupt,
                           sensitive=[interrupt_signal.default_event()],
                           dont_initialize=True, name="irq_sample")
        else:
            self.interrupt_signal = None

    # -- core memory-interface callbacks -------------------------------------
    def _serve_fetch(self, address: int) -> int:
        return self._fetched_word

    def _serve_load(self, address: int, size: int) -> int:
        return self._load_value

    def _capture_store(self, address: int, value: int, size: int) -> None:
        # The wrapper already performed the store over the bus before the
        # core executed the instruction; nothing remains to do.
        return None

    def _sample_interrupt(self) -> None:
        if self.interrupt_signal.value:
            self.core.raise_interrupt()
        else:
            self.core.clear_interrupt()

    # -- execution control -------------------------------------------------------
    def set_halt_address(self, address: Optional[int]) -> None:
        """Stop executing when the PC reaches ``address``."""
        self.halt_address = address

    def set_instruction_budget(self, budget: Optional[int]) -> None:
        """Stop executing after ``budget`` more retired instructions."""
        if budget is None:
            self.max_instructions = None
        else:
            self.max_instructions = self.core.stats.instructions_retired \
                + budget
        self.finished = False

    @property
    def retired_instructions(self) -> int:
        """Instructions retired so far."""
        return self.core.stats.instructions_retired

    def enable_quantum(self, context: QuantumContext,
                       quantum_instructions: int = 1024) -> None:
        """Switch to temporally-decoupled execution (``cpu_level=quantum``).

        ``context`` names the platform processes the fast path may detach
        from the clock while it warps time forward; any rising-edge process
        outside that set permanently disables the fast path (the wrapper
        then behaves exactly like the per-cycle level).
        """
        context.known_processes = set(context.extra_processes)
        context.known_processes.add(self.main_process)
        for uart in context.uarts:
            context.known_processes.add(uart._tx_thread)
        self._quantum = context
        self.quantum_instructions = max(1, quantum_instructions)
        self.cpu_level = CPU_QUANTUM

    def bump_route_epoch(self) -> None:
        """Invalidate cached per-instruction fetch routing/timings."""
        self._route_epoch += 1

    # -- checkpoint / restore ------------------------------------------------
    def capture_state(self) -> dict:
        """Plain-data snapshot of the wrapper (the core is a state child).

        Only valid at a *parked* point: the execute thread suspended on its
        idle timeout (``finished`` set by a drained instruction budget or a
        reached halt address), so the generator frame holds no in-flight
        bus transaction that would need to be serialized.
        """
        thread = self.main_process
        event = thread._timeout_event
        if not (thread._waiting_time and event._pending_kind == "timed"):
            raise ModelError(
                "snapshot requires the execute thread to be parked on its "
                "idle timeout (run to a budget or halt first)")
        return {
            "finished": self.finished,
            "max_instructions": self.max_instructions,
            "halt_address": self.halt_address,
            "route_epoch": self._route_epoch,
            "fetched_word": self._fetched_word,
            "load_value": self._load_value,
            "instruction_cycles": self._instruction_cycles,
            "wake_time_ps": event._pending_time,
        }

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`capture_state` output into a fresh wrapper.

        Pre-starts the execute thread so its generator parks on the idle
        timeout exactly as at capture time (the parked body touches no core
        state while ``finished`` is set), injects the saved state, then
        re-arms the idle wakeup at its absolute snapshot time.
        """
        thread = self.main_process
        if thread._started:
            raise ModelError("restore_state requires a fresh wrapper")
        self.finished = True
        self.max_instructions = None
        thread.execute()
        self.finished = state["finished"]
        self.max_instructions = state["max_instructions"]
        self.halt_address = state["halt_address"]
        self._route_epoch = state["route_epoch"]
        self._fetched_word = state["fetched_word"]
        self._load_value = state["load_value"]
        self._instruction_cycles = state["instruction_cycles"]
        event = thread._timeout_event
        event.cancel()
        event.notify(state["wake_time_ps"] - self.sim.time_ps)

    def state_children(self) -> dict:
        return {"core": self.core}

    # -- the execute thread --------------------------------------------------------
    def _execute_thread(self):
        core = self.core
        while True:
            if self.finished:
                # Idle until a new budget or halt target re-arms execution.
                yield self.clock.period_ps * 64
                continue
            if self._should_stop():
                self.finished = True
                if self.finish_callback is not None:
                    self.finish_callback()
                continue
            quantum = self._quantum
            if quantum is not None and not quantum.blocked \
                    and self._quantum_can_engage(quantum):
                # The engage probe runs out here so a refused cycle costs
                # one call, not a generator construction plus unwind.
                if (yield from self._quantum_burst(quantum)):
                    continue
            if self.interceptor is not None:
                self.interceptor.maybe_intercept(core)
                if self._should_stop():
                    self.finished = True
                    if self.finish_callback is not None:
                        self.finish_callback()
                    continue
            self._instruction_cycles = 0
            if core.interrupt_will_be_taken():
                core.step()
                core.stats.add_cycles(INTERRUPT_ENTRY_CYCLES)
                for __ in range(INTERRUPT_ENTRY_CYCLES):
                    yield None
                continue
            # ---- instruction fetch ---------------------------------------
            pc = core.pc
            word = yield from self._fetch(pc)
            instruction = core.decode_cache.lookup(word)
            # ---- data access (performed ahead of the zero-time execute) --
            if instruction.is_load:
                address = core.preview_effective_address(instruction)
                self._load_value = yield from self._data_read(
                    address, instruction.access_size)
            elif instruction.is_store:
                address = core.preview_effective_address(instruction)
                value = core.preview_store_value(instruction)
                yield from self._data_write(address, value,
                                            instruction.access_size)
            # ---- execute in zero simulation time --------------------------
            # The fetch and data access above already happened on the bus;
            # an interrupt that rose during them waits for the next
            # boundary (the will-be-taken check at the top of the loop).
            self._fetched_word = word
            core.step(take_interrupts=False)
            core.stats.add_cycles(self._instruction_cycles)

    def _should_stop(self) -> bool:
        if self.max_instructions is not None \
                and self.core.stats.instructions_retired \
                >= self.max_instructions:
            return True
        return (self.halt_address is not None
                and self.core.pc == self.halt_address
                and not self.core.in_delay_slot)

    # -- the temporally-decoupled fast path ----------------------------------
    def _quantum_can_engage(self, ctx: QuantumContext) -> bool:
        """Cheapest-first quiescence checks; may latch ``ctx.blocked``."""
        core = self.core
        servicing = False
        if core.interrupt_pending:
            if core.msr.interrupt_enable:
                return False
            # Interrupt service in progress: the request is latched in the
            # core and MSR.IE is off, so it cannot be (re-)taken.  The warp
            # may run the handler body -- it ends before any instruction
            # that could set MSR.IE, and the controller acknowledge is an
            # unknown device in-warp (the IAR write ends the warp and
            # replays per-cycle), so entry and exit edges stay exact.
            servicing = True
        intc = ctx.intc
        if intc is not None:
            # Outside service no interrupt may be in flight: the output low
            # and stable, no enabled pending source, and every asserted
            # input latched (so re-polling during the warp would change
            # nothing).  In service the output must be high, stable, and
            # consistent with the latched state -- the detached poll would
            # hold it exactly there.
            irq = intc.irq
            if irq._update_requested and irq._next != irq._current:
                return False
            level = 1 if (intc.mer & 0x1) and (intc.isr & intc.ier) else 0
            if irq._current != level:
                return False
            if level and not servicing:
                return False
            for bit, source in intc._inputs:
                if source._update_requested \
                        and source._next != source._current:
                    return False
                if source._current and not (intc.isr & (1 << bit)):
                    return False
        for uart in ctx.uarts:
            # Transmit thread asleep on its own timeout and no interrupt
            # generation the warp could delay.  A non-empty TX FIFO is
            # fine: the warp replays the drain wakes it runs across.
            thread = uart._tx_thread
            if not thread._waiting_time:
                return False
            if thread._timeout_event._pending_kind != "timed":
                return False
            if uart.interrupt_enabled:
                return False
        # The next fetch must be servable without simulated time, otherwise
        # detaching and reverting every cycle would only add overhead.
        pc = core.pc
        if not (self.lmb is not None and self.lmb.claims(pc, 4)) \
                and not (self.dispatcher is not None
                         and self.dispatcher.serves_fetch(pc)):
            dmi_region = getattr(self.transport, "dmi_region", None)
            if dmi_region is None or dmi_region(pc)[0] is None:
                return False
        clock = ctx.clock
        posedge = clock.posedge_event()
        known = ctx.known_processes
        for process in posedge._static_procs:
            if process not in known:
                ctx.blocked = True
                return False
        if posedge._dynamic_procs:
            return False
        for event in (clock.negedge_event(), clock.default_event()):
            if event._static_procs or event._dynamic_procs:
                ctx.blocked = True
                return False
        # Bounds within one cycle leave no room for even the cheapest
        # instruction: the burst could only charge zero cycles and revert,
        # so skip the detach/park round-trip and let the per-cycle path
        # carry execution across the break point.
        end_time = self.sim._run_end_time
        if end_time is not None \
                and end_time - self.sim.time_ps < clock.period_ps:
            return False
        ethernet = ctx.ethernet
        if ethernet is not None and ethernet.link is not None \
                and not ethernet.detached and ethernet.rx_interrupt_enabled:
            horizon = ethernet.link.earliest_delivery_ps(ethernet.link_port)
            if horizon - self.sim.time_ps < clock.period_ps:
                return False
        return True

    def _quantum_burst(self, ctx: QuantumContext):
        """Execute up to one time quantum against DMI-backed memory.

        Runs at a rising-edge activation, after ``_quantum_can_engage``
        approved the platform state.  Detaches every clock-driven process,
        executes hot paths as compiled traces (:mod:`repro.iss.trace`) and
        everything else one decoded instruction at a time while
        accumulating the protocol-derived cycle cost, then charges the
        quantum in timed waits and reconciles the detached state so the
        next instruction starts on exactly the cycle the per-cycle path
        would have reached.

        On a linked node the warp is additionally bounded by the link's
        delivery horizon: while the MAC's RX interrupt is enabled, no
        sub-burst runs across ``earliest_delivery_ps`` -- the warp
        surfaces there, lets due frames deliver, and either keeps warping
        (horizon moved, nothing arrived) or ends so the re-attached
        interrupt wiring latches the RX interrupt on the exact per-cycle
        cycle.  UART and linked-MAC register accesses are served in-line
        with full fabric bookkeeping instead of ending the warp; accesses
        that observe RX state are pinned strictly behind the horizon, and
        ones that could move an interrupt edge end the warp first.

        Returns True when at least one cycle was charged; False leaves
        the kernel state untouched so the caller runs the ordinary
        per-cycle body.
        """
        core = self.core
        lmb = self.lmb
        dispatcher = self.dispatcher
        transport = self.transport
        interceptor = self.interceptor
        clock = ctx.clock
        posedge = clock.posedge_event()
        period = clock.period_ps
        # ---- detach the clocked world ---------------------------------
        detached = tuple(posedge._static_procs)
        for process in detached:
            posedge.remove_static(process)
        # Park the UART transmit timeouts: mark the queued notification
        # stale instead of cancelling (cancel rebuilds the generic heap).
        # Each record also tracks the thread's drain-wake grid so in-warp
        # register accesses can replay the wakes that precede them:
        # [uart, event, parked_pending_ps, sleep_ps, next_wake_ps, exact].
        # ``exact`` starts True when characters are already buffered (their
        # drains are observable) and latches True on any in-warp access;
        # an exact uart replays every wake instead of skipping to now.
        uart_states = []
        for uart in ctx.uarts:
            event = uart._tx_thread._timeout_event
            uart_states.append([uart, event, event._pending_time,
                                uart.tx_sleep_cycles * period,
                                event._pending_time,
                                not uart.tx_fifo.empty])
            event._pending_kind = None
        # ---- warp horizon ---------------------------------------------
        ethernet = ctx.ethernet
        link = None
        eth_port = 0
        if ethernet is not None and ethernet.link is not None \
                and not ethernet.detached:
            link = ethernet.link
            eth_port = ethernet.link_port
        # A pre-existing high RX level (latched and being serviced, or
        # IER-masked) cannot edge during the warp: new deliveries keep the
        # level high without a signal transition, and every RX-observing
        # access is pinned behind the horizon anyway.  Only a *rise* from
        # low has interrupt timing to protect.
        eth_irq_high = link is not None and bool(ethernet.interrupt._current)
        # Latched while the core holds an unserviced interrupt request
        # (stable for the whole warp: the detached controller poll is the
        # only writer).  Guards the IE-setting instructions below.
        guard_ie = core.interrupt_pending
        timer = ctx.timer
        ticking = timer is not None and timer.enabled
        hard_bound = (0x1_0000_0000 - timer.counter) if ticking else None
        # Never warp past the end of the kernel's current run window: a
        # bounded ``run_cycles`` call must return with the same cycles
        # charged at every abstraction level, so stimulus the testbench
        # applies between run calls (suppression toggles, injected
        # characters) lands on the same instruction it would per-cycle.
        warp_start = self.sim.time_ps
        end_time = self.sim._run_end_time
        if end_time is not None:
            window = (end_time - warp_start) // period
            if hard_bound is None or window < hard_bound:
                hard_bound = window
        budget = None
        if self.max_instructions is not None:
            budget = self.max_instructions - core.stats.instructions_retired
        allowed = self.quantum_instructions
        if budget is not None and budget < allowed:
            allowed = budget
        # -1 is never a PC value, so it doubles as "no halt address".
        halt = -1 if self.halt_address is None else self.halt_address
        hooked = None
        split_pcs = ()
        if interceptor is not None:
            # Traces end at every hooked address regardless of whether
            # interception is currently enabled: it can be toggled at run
            # time and traces outlive the toggle.
            split_pcs = interceptor._handlers
            if interceptor.enabled:
                hooked = split_pcs
        epoch = self._route_epoch
        stats = core.stats
        decoded = core._decoded
        hot = _trace.TRACE_HOT_COUNT
        longest = _trace.TRACE_MAX_INSNS
        # Memory a trace may access directly besides the fabric's DMI
        # regions: the BRAM behind the LMB and the dispatcher-served main
        # memory.  Neither moves during a warp.
        bram_region = main_region = None
        bram_lo = bram_end = main_lo = main_end = 0
        if lmb is not None:
            bram = lmb.bram
            bram_lo, bram_end = bram.base_address, bram.end_address
            bram_region = TraceRegion(bram, lmb, "lmb", LMB_ACCESS_CYCLES,
                                      bram_lo, bram_end)
        main = dispatcher.main_memory if dispatcher is not None \
            and dispatcher.handle_main_memory else None
        if main is not None:
            main_lo, main_end = main.base_address, main.end_address
            main_region = TraceRegion(main, dispatcher, "dispatcher",
                                      DISPATCHER_ACCESS_CYCLES,
                                      main_lo, main_end)
        # Only the functional fabric has DMI regions; on the others every
        # access outside BRAM and main memory takes the device path.
        dmi_region = getattr(transport, "dmi_region", None)
        # ---- execution ------------------------------------------------
        # ``cycles`` counts warp-relative charged cycles across sub-bursts,
        # ``charged`` how many of them have already been paid to the kernel
        # (at horizon flush points); the timeline invariant is
        # ``now == warp_start + charged * period``.
        cycles = 0
        charged = 0
        executed = 0
        while True:
            # Per-sub-burst bound: the nearest upcoming break point in
            # warp-relative cycles.  The link horizon only bounds the
            # sub-burst while the RX interrupt is enabled -- disabled, a
            # delivery is invisible until software polls, and the
            # RX-observing accesses themselves are pinned behind
            # ``rx_horizon`` instead.
            bound = hard_bound
            link_limited = False
            rx_horizon = None
            if link is not None:
                rx_horizon = link.earliest_delivery_ps(eth_port)
                if ethernet.rx_interrupt_enabled:
                    link_bound = (rx_horizon - warp_start) // period
                    if bound is None or link_bound <= bound:
                        bound = link_bound
                        link_limited = True
            flush = False
            sub_start = cycles
            # ``(head entry, records, PCs seen, invalidation stamp)`` while
            # the path from a hot PC is being recorded.
            recording = None
            # Set once a trace did not fit: the rest of the sub-burst runs
            # per instruction up to the bound or budget.
            tail = False
            # Why the warp ends in front of the current instruction, when
            # no trace could hold it either.
            refusal = None
            while executed < allowed:
                pc = core.pc
                boundary = core._branch_after_delay is None \
                    and core._imm_prefix is None
                if recording is not None and boundary:
                    seen = recording[2]
                    stop = ("loop" if pc == recording[0].pc
                            else "join" if pc in seen
                            else "halt" if pc == halt
                            else "hooked" if pc in split_pcs
                            else "length" if len(recording[1]) >= longest
                            else None)
                    if stop is None:
                        seen.add(pc)
                    else:
                        self._install_trace(recording, pc, stop, epoch)
                        recording = None
                if pc == halt and core._branch_after_delay is None:
                    break
                if hooked is not None and pc in hooked \
                        and interceptor.maybe_intercept(core) is not None:
                    pc = core.pc
                    if pc == halt and core._branch_after_delay is None:
                        break
                entry = decoded.get(pc)
                if entry is not None and entry.fetch_epoch == epoch:
                    fetch_cycles = entry.fetch_cycles
                else:
                    if lmb is not None and lmb.claims(pc, 4):
                        word = lmb.read(pc, 4)
                        fetch_cycles = LMB_ACCESS_CYCLES
                    elif dispatcher is not None and dispatcher.serves_fetch(pc):
                        word, fetch_cycles = dispatcher.fetch(pc)
                    else:
                        served = transport.direct_read(INSTRUCTION_MASTER, pc, 4)
                        if served is None:
                            break
                        word, fetch_cycles = served
                    if entry is None:
                        entry = core.build_decoded(pc, word)
                    elif word != entry.word:
                        # Self-modified since decode: rebuild from the fresh word.
                        core.invalidate_code(pc, 4)
                        entry = core.build_decoded(pc, word)
                    entry.fetch_cycles = fetch_cycles
                    entry.fetch_epoch = epoch
                # ---- compiled traces --------------------------------------
                if boundary and recording is None and not tail:
                    trace = entry.trace
                    if trace is not None and (
                            trace.epoch != epoch
                            or trace.stamp != stats.decoded_invalidations):
                        trace = entry.trace = None
                    if trace is None:
                        entry.heat += 1
                        if entry.heat >= hot:
                            recording = (entry, [], {pc},
                                         stats.decoded_invalidations)
                    elif halt in trace.pcs:
                        # The halt address moved onto the trace's path.
                        stats.trace_exits["halt"] += 1
                    else:
                        passes = (allowed - executed) // trace.length
                        limit = "budget"
                        if bound is not None \
                                and (bound - cycles) // trace.cycles < passes:
                            passes = (bound - cycles) // trace.cycles
                            limit = "bound"
                        if passes > 0:
                            core.pc, retired, spent, exit_id = trace.run(passes)
                            executed += retired
                            cycles += spent
                            stats.trace_runs += 1
                            stats.trace_exits[trace.reasons[exit_id]
                                              or limit] += 1
                            continue
                        # Too long for what is left: finish per instruction.
                        stats.trace_exits[limit] += 1
                        tail = True
                # ---- one instruction ---------------------------------------
                if guard_ie and entry.mnemonic in IE_SETTING_MNEMONICS:
                    # Servicing an interrupt: end the warp before anything
                    # that could set MSR.IE, so the re-enable (and the
                    # re-taken interrupt entry behind it) replays on the
                    # exact per-cycle edge.
                    refusal = "ie_guard"
                    break
                # The data access goes first, as on the per-cycle path.
                # Misaligned, read-only and unservable targets end the warp
                # so the per-cycle path replays them with full diagnostics.
                data_cycles = 0
                region = None
                if entry.is_load or entry.is_store:
                    address = core._effective_address(entry.instruction)
                    size = entry.access_size
                    if size > 1 and address % size:
                        refusal = "misaligned"
                        break
                    dmi = None
                    if bram_lo <= address and address + size <= bram_end:
                        region = bram_region
                    elif main_lo <= address and address + size <= main_end:
                        region = main_region
                    elif dmi_region is not None:
                        # One lookup serves the bound check and the access.
                        dmi, slave = dmi_region(address)
                        if dmi is not None:
                            data_cycles = protocol_transfer_cycles(
                                slave.latency, slave.gated)
                    if region is not None:
                        storage = region.storage
                        if entry.is_store and storage.read_only:
                            refusal = "read_only"
                            break
                        data_cycles = region.cycles
                    if data_cycles and bound is not None \
                            and cycles + fetch_cycles + data_cycles > bound:
                        # A memory access that would cross the bound is
                        # left undone: the path that carries execution
                        # across the break performs and books it once.
                        flush = link_limited
                        break
                    if region is not None:
                        if entry.is_load:
                            self._load_value = storage.read(address, size)
                        else:
                            storage.write(address, core.preview_store_value(
                                entry.instruction), size)
                        if region is main_region:
                            dispatcher.data_accesses += 1
                        elif entry.is_load:
                            lmb.reads += 1
                        else:
                            lmb.writes += 1
                    elif dmi is not None:
                        # Writes to read-only stores (FLASH) are dropped,
                        # as on every fabric.
                        if entry.is_load:
                            self._load_value = dmi.read(address, size)
                        elif not dmi.read_only:
                            dmi.write(address, core.preview_store_value(
                                entry.instruction), size)
                        transport.account_direct(DATA_MASTER, 1, data_cycles)
                        if recording is not None:
                            region = self._dmi_trace_region(
                                dmi, data_cycles, entry.is_store)
                    else:
                        if core._imm_prefix is not None:
                            refusal = "device"
                            break
                        if entry.is_load:
                            served = self._warp_device_read(
                                ctx, uart_states, address, size,
                                cycles + fetch_cycles, bound, link_limited,
                                rx_horizon, warp_start, period)
                        else:
                            served = self._warp_device_write(
                                ctx, uart_states, address,
                                core.preview_store_value(entry.instruction),
                                size, cycles + fetch_cycles, bound,
                                link_limited, rx_horizon, warp_start, period)
                        if served is None:
                            refusal = "device"
                            break
                        if served is _WARP_RETRY:
                            flush = True
                            break
                        if entry.is_load:
                            self._load_value, data_cycles = served
                        else:
                            data_cycles = served
                        if recording is not None:
                            region = self._device_trace_region(
                                ctx, address, size, data_cycles,
                                entry.is_store)
                step_cycles = fetch_cycles + data_cycles
                if bound is not None and cycles + step_cycles > bound:
                    # Timer wrap / run window / link horizon ahead; flush
                    # (horizon) or let the per-cycle path carry execution
                    # across the break point (everything else).
                    flush = link_limited
                    break
                took_branch = core.execute_decoded(entry)
                cycles += step_cycles
                executed += 1
                if recording is not None:
                    recording[1].append((entry, region, took_branch))
                if self._warp_post is not None:
                    post = self._warp_post
                    self._warp_post = None
                    if post == "ack":
                        guard_ie = False
                    else:
                        flush = True
                        break
            if recording is not None and refusal is not None:
                # The recorded path ends in front of what ended the warp.
                self._install_trace(recording, core.pc, refusal, epoch)
            if not flush or cycles == sub_start:
                # Budget, halt, an unservable access or a non-horizon bound
                # ends the warp; so does a horizon flush that made no
                # progress (the per-cycle path then carries one instruction
                # across the horizon).
                break
            # ---- horizon flush ----------------------------------------
            # Surface exactly at the sub-burst end.  Frames due here are
            # delivered in the timed phase, before this thread resumes, so
            # the MAC/link state below is final for this cycle.  The
            # parked-until promise lets peers chain their own horizons off
            # this node's virtual position instead of the kernel clock.
            self.decoupled_until_ps = warp_start + cycles * period
            yield (cycles - charged) * period
            charged = cycles
            eth_irq = ethernet.interrupt
            if not eth_irq_high \
                    and (eth_irq._current or eth_irq._update_requested):
                # A delivery raised (or is about to commit) the RX
                # interrupt: end the warp so the re-attached controller
                # poll latches it on this very edge, exactly per-cycle.
                # (A level that was already high at the last flush stays
                # high -- or falls edge-invisibly behind the in-warp mask
                # write -- so it has no timing to protect.)
                break
            # Re-latch against the level as of this flush: a warp may now
            # span the handler's mask and the bottom half's re-enable, so
            # a fall behind the mask must make later rises visible again.
            eth_irq_high = bool(eth_irq._next if eth_irq._update_requested
                                else eth_irq._current)
        if cycles == 0:
            # Nothing charged: restore the world untouched, zero cost.  The
            # parked notifications are revived in place via the kernel's
            # staleness rule, so no queue traffic happens either.
            for process in detached:
                posedge.add_static(process)
            for record in uart_states:
                event = record[1]
                event._pending_kind = "timed"
                event._pending_time = record[2]
            return False
        stats.add_cycles(cycles)
        stats.quantum_warps += 1
        stats.quantum_instructions += executed
        # ---- charge the rest of the quantum in one timed wait ---------
        if cycles > charged:
            self.decoupled_until_ps = warp_start + cycles * period
            yield (cycles - charged) * period
        # ---- reconcile ------------------------------------------------
        if ticking:
            # The final increment happens live: the re-attached count
            # process runs on this very edge, which also keeps expiry,
            # auto-reload and interrupt generation on the exact cycle.
            timer.counter = (timer.counter + cycles - 1) & WORD_MASK
        for process in detached:
            posedge.add_static(process)
        now = self.sim.time_ps
        for record in uart_states:
            uart, event, pending_time, sleep_ps, next_wake, exact = record
            if exact:
                # An observed uart: replay the remaining wakes it owes (the
                # ones strictly before now), then resume live on its own
                # wake grid -- activation counts and drain timing match the
                # per-cycle path exactly.
                if next_wake < now:
                    self._warp_uart_replay(record, now - 1)
                    next_wake = record[4]
                event.notify(next_wake - now)
            elif pending_time >= now:
                event.notify(pending_time - now)
            else:
                behind = now - pending_time
                catch_up = -(-behind // sleep_ps) * sleep_ps
                event.notify(pending_time + catch_up - now)
        # Re-align with the rising edge this wait matured on.
        yield None
        self.decoupled_until_ps = None
        return True

    # -- compiled traces -------------------------------------------------------
    def _install_trace(self, recording, next_pc: int, stop: str,
                       epoch: int) -> None:
        """Compile the path recorded from its head and hang it there.

        ``stop`` says why the recording ended at ``next_pc``.  A recording
        during which a store dropped decoded code may hold stale entries
        and is recorded afresh; one that translates to nothing (a device
        access at its head, say) waits ``TRACE_RETRY_COUNT`` dispatches.
        """
        head, records, _seen, stamp = recording
        stats = self.core.stats
        if stats.decoded_invalidations != stamp:
            head.heat = 0
            return
        trace = compile_trace(self.core, records, next_pc, stop)
        if trace is None:
            head.heat = -_trace.TRACE_RETRY_COUNT
            return
        trace.epoch = epoch
        trace.stamp = stamp
        head.trace = trace
        stats.traces_compiled += 1
        for entry, _region, _taken in records:
            entry.heat = 0  # from now on, only dispatches the trace misses

    def _dmi_trace_region(self, storage, cycles: int, store: bool):
        """The :class:`TraceRegion` of the DMI ``storage`` that just served
        an access (``"read_only"`` for a dropped store)."""
        if store and storage.read_only:
            return "read_only"
        return TraceRegion(storage, self.transport, "dmi", cycles,
                           storage.base_address, storage.end_address)

    def _device_trace_region(self, ctx, address: int, size: int, cycles: int,
                             store: bool):
        """The :class:`DeviceRegion` of a register access just served
        in-warp, when its device lets a trace serve it (only the linked
        MAC's FIFO data ports do); ``"device"`` otherwise."""
        ethernet = ctx.ethernet
        conditions = None if ethernet is None \
            else ethernet.trace_conditions(address, size, store)
        if conditions is None:
            return "device"
        return DeviceRegion(ethernet, self.transport, address, cycles,
                            conditions)

    # -- in-warp peripheral access -------------------------------------------
    def _warp_device_read(self, ctx, uart_states, address, size, base_cycles,
                          bound, link_limited, rx_horizon, warp_start,
                          period):
        """Serve a UART / linked-MAC load in-line during a warp, if safe.

        ``base_cycles`` is the warp-relative cycle the transfer starts on;
        the slave access itself lands ``REQUEST_TO_GRANT_CYCLES`` plus the
        decode latency later, exactly where the pin-accurate protocol puts
        it.  Returns ``(value, data_cycles)`` with the access performed and
        accounted as the TLM fabrics would, ``None`` when the warp must end
        (unknown peripheral, or a bound the per-cycle path has to carry
        execution across), or ``_WARP_RETRY`` when the access merely has to
        wait for the link horizon to move (the caller flushes the current
        sub-burst and retries the instruction).
        """
        transport = self.transport
        if transport.kind not in (BUS_TRANSACTION, BUS_FUNCTIONAL):
            return None
        ethernet = ctx.ethernet
        if ethernet is not None and ethernet.link is not None \
                and not ethernet.detached \
                and ethernet.base_address <= address < ethernet.end_address:
            pre_access = REQUEST_TO_GRANT_CYCLES \
                + (0 if ethernet.gated else ethernet.latency)
            data_cycles = pre_access + ACK_TO_MASTER_CYCLES
            if bound is not None and base_cycles + data_cycles > bound:
                return _WARP_RETRY if link_limited else None
            # MAC state is only final strictly before the delivery horizon;
            # on or past it the MAC says which reads a delivery cannot
            # change (this is what lets the masked interrupt handler's
            # drain loop stay in-warp).
            if rx_horizon is not None and warp_start \
                    + (base_cycles + pre_access) * period >= rx_horizon \
                    and not ethernet.served_ahead_of_delivery(address, False):
                return _WARP_RETRY
            value = ethernet.target_read(address, size)
            transport.account_target(DATA_MASTER, 1, data_cycles)
            return value, data_cycles
        for record in uart_states:
            uart = record[0]
            if uart.detached or not (uart.base_address <= address
                                     < uart.end_address):
                continue
            pre_access = REQUEST_TO_GRANT_CYCLES \
                + (0 if uart.gated else uart.latency)
            data_cycles = pre_access + ACK_TO_MASTER_CYCLES
            if bound is not None and base_cycles + data_cycles > bound:
                return _WARP_RETRY if link_limited else None
            # Drain wakes due up to the access edge run first per-cycle
            # (their timed notifications were queued cycles earlier), so
            # replay them before reading cycle-varying FIFO state.
            self._warp_uart_replay(
                record, warp_start + (base_cycles + pre_access) * period)
            value = uart.target_read(address, size)
            transport.account_target(DATA_MASTER, 1, data_cycles)
            return value, data_cycles
        return None

    def _warp_device_write(self, ctx, uart_states, address, value, size,
                           base_cycles, bound, link_limited, rx_horizon,
                           warp_start, period):
        """Serve a UART / linked-MAC store in-line during a warp, if safe.

        Same contract as :meth:`_warp_device_read`, returning the cycle
        annotation instead of a value.  Stores that could move an interrupt
        edge -- enabling the MAC's RX interrupt, enabling a UART's
        interrupt -- end the warp *before* executing, so the per-cycle path
        replays them and the interrupt wiring sees the transition on the
        exact cycle it would have per-cycle.
        """
        transport = self.transport
        if transport.kind not in (BUS_TRANSACTION, BUS_FUNCTIONAL):
            return None
        ethernet = ctx.ethernet
        if ethernet is not None and ethernet.link is not None \
                and not ethernet.detached \
                and ethernet.base_address <= address < ethernet.end_address:
            offset = (address - ethernet.base_address) & 0xFFC
            pre_access = REQUEST_TO_GRANT_CYCLES \
                + (0 if ethernet.gated else ethernet.latency)
            data_cycles = pre_access + ACK_TO_MASTER_CYCLES
            if bound is not None and base_cycles + data_cycles > bound:
                return _WARP_RETRY if link_limited else None
            edge_ps = warp_start + (base_cycles + pre_access) * period
            if offset == ethernet.REG_CONTROL \
                    and (value & ethernet.CONTROL_RX_IE) \
                    and not ethernet.rx_interrupt_enabled:
                if ethernet.rx_pending:
                    # Enabling with frames queued raises the RX interrupt
                    # on the store's own cycle: per-cycle territory.
                    return None
                if rx_horizon is not None and edge_ps >= rx_horizon:
                    # A delivery may be due before the store lands; surface
                    # at the horizon first and retry against fresh state.
                    return _WARP_RETRY
                # Queue empty and no delivery can precede the store, so the
                # interrupt level stays low and the write itself is
                # edge-invisible.  Ask the burst loop to flush right after
                # this instruction: the next sub-burst then recomputes its
                # bound under the newly horizon-limited regime.
                self._warp_post = "flush"
            elif rx_horizon is not None and edge_ps >= rx_horizon \
                    and not ethernet.served_ahead_of_delivery(address, True):
                # A store that interacts with delivery ordering (queue head
                # pop, sticky-overflow W1C) is only final before the horizon.
                return _WARP_RETRY
            if offset == ethernet.REG_TX_GO:
                # Commit the frame at the access edge's *virtual* time so
                # the link derives the same delivery due time the
                # per-cycle path would have produced.
                ethernet.tx_commit_ps = edge_ps
                try:
                    ethernet.target_write(address, value, size)
                finally:
                    ethernet.tx_commit_ps = None
            else:
                ethernet.target_write(address, value, size)
            transport.account_target(DATA_MASTER, 1, data_cycles)
            return data_cycles
        intc = ctx.intc
        if intc is not None and not intc.detached \
                and intc.base_address <= address < intc.end_address:
            if ((address - intc.base_address) & 0x1F) != intc.REG_IAR:
                return None
            # An interrupt acknowledge can be served in-warp when it
            # provably drops the controller output to zero and nothing can
            # immediately re-raise it: no enabled source stays pending and
            # every input line is low and stable (a high input would
            # re-latch ISR on the very next poll).  The handler's ``rtid``
            # may then run in-warp too -- the caller clears its IE guard.
            if (intc.mer & 0x1) and ((intc.isr & ~value) & intc.ier):
                return None
            irq = intc.irq
            if not irq._current or irq._update_requested:
                return None
            for _bit, source in intc._inputs:
                if source._current or source._update_requested:
                    return None
            pre_access = REQUEST_TO_GRANT_CYCLES \
                + (0 if intc.gated else intc.latency)
            data_cycles = pre_access + ACK_TO_MASTER_CYCLES
            if bound is not None and base_cycles + data_cycles > bound:
                return _WARP_RETRY if link_limited else None
            intc.target_write(address, value, size)
            transport.account_target(DATA_MASTER, 1, data_cycles)
            # The acknowledge scheduled the output's fall; apply it
            # synchronously (the queued signal update re-applies the same
            # value, a no-op) and clear the core's latched request so the
            # service epilogue stays in-warp.
            irq._current = 0
            self.core.clear_interrupt()
            self._warp_post = "ack"
            return data_cycles
        for record in uart_states:
            uart = record[0]
            if uart.detached or not (uart.base_address <= address
                                     < uart.end_address):
                continue
            if ((address - uart.base_address) & 0xF) == uart.REG_CONTROL \
                    and (value & uart.CONTROL_ENABLE_INTERRUPT):
                return None
            pre_access = REQUEST_TO_GRANT_CYCLES \
                + (0 if uart.gated else uart.latency)
            data_cycles = pre_access + ACK_TO_MASTER_CYCLES
            if bound is not None and base_cycles + data_cycles > bound:
                return _WARP_RETRY if link_limited else None
            self._warp_uart_replay(
                record, warp_start + (base_cycles + pre_access) * period)
            record[5] = True
            uart.target_write(address, value, size)
            transport.account_target(DATA_MASTER, 1, data_cycles)
            return data_cycles
        return None

    def _warp_uart_replay(self, record, edge_ps: int) -> None:
        """Replay the UART's drain wakes due up to ``edge_ps`` (inclusive).

        Exactly the per-activation body of the transmit thread (interrupt
        generation is engage-refused during a warp), applied along the
        parked thread's own wake grid.  Marks the uart *exact*: its
        remaining wakes replay at warp end instead of being skipped.
        """
        wake = record[4]
        if wake > edge_ps:
            return
        uart = record[0]
        sleep_ps = record[3]
        fifo = uart.tx_fifo
        console = uart.console
        while wake <= edge_ps:
            uart.tx_thread_activations += 1
            while not fifo.empty:
                console.write_char(fifo.nb_read())
            wake += sleep_ps
        record[4] = wake
        record[5] = True

    # -- routed accesses ---------------------------------------------------------------
    def _fetch(self, address: int):
        if self.lmb is not None and self.lmb.claims(address, 4):
            word = self.lmb.read(address, 4)
            yield from self._consume_cycles(LMB_ACCESS_CYCLES)
            return word
        if self.dispatcher is not None \
                and self.dispatcher.serves_fetch(address):
            word, cycles = self.dispatcher.fetch(address)
            yield from self._consume_cycles(cycles)
            return word
        word, cycles = yield from self.transport.read(INSTRUCTION_MASTER,
                                                      address, 4)
        self._instruction_cycles += cycles
        if word is None:
            raise ModelError(f"instruction fetch from {address:#010x} "
                             f"returned no data")
        return word

    def _data_read(self, address: int, size: int):
        if self.lmb is not None and self.lmb.claims(address, size):
            value = self.lmb.read(address, size)
            yield from self._consume_cycles(LMB_ACCESS_CYCLES)
            return value
        if self.dispatcher is not None \
                and self.dispatcher.serves_data(address, size):
            value, cycles = self.dispatcher.read(address, size)
            yield from self._consume_cycles(cycles)
            return value
        value, cycles = yield from self.transport.read(DATA_MASTER, address,
                                                       size)
        self._instruction_cycles += cycles
        return value

    def _data_write(self, address: int, value: int, size: int):
        if self.lmb is not None and self.lmb.claims(address, size):
            self.lmb.write(address, value, size)
            yield from self._consume_cycles(LMB_ACCESS_CYCLES)
            return
        if self.dispatcher is not None \
                and self.dispatcher.serves_data(address, size):
            cycles = self.dispatcher.write(address, value, size)
            yield from self._consume_cycles(cycles)
            return
        cycles = yield from self.transport.write(DATA_MASTER, address, value,
                                                 size)
        self._instruction_cycles += cycles

    def _consume_cycles(self, cycles: int):
        for __ in range(cycles):
            yield None
        self._instruction_cycles += cycles

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MicroBlazeWrapper({self.name!r}, "
                f"pc={self.core.pc:#010x}, finished={self.finished})")

"""UART Lite models (console UART and debug UART).

The register map follows the Xilinx OPB UART Lite core:

====== ============== =======================================
offset register       behaviour
====== ============== =======================================
0x0    RX FIFO        read consumes one received character
0x4    TX FIFO        write queues one character for transmit
0x8    STATUS         bit0 RX valid, bit2 TX empty, bit3 TX full
0xC    CONTROL        bit0 reset TX FIFO, bit1 reset RX FIFO,
                      bit4 enable interrupt
====== ============== =======================================

In the paper the UART connects to a host pseudo-terminal; transmitting a
character therefore costs a host system call, and the transmission process
is deliberately *not* scheduled every cycle -- it sleeps for many cycles
between activations ("multicycle sleep", section 4.5.2).  Here the host
side is a :class:`ConsoleSink`, and the transmitter thread reproduces the
multicycle-sleep behaviour (configurable so its effect can be measured).
"""

from __future__ import annotations

from typing import Optional

from ..bus.opb import OpbSlave
from ..bus.signals import OpbInterconnect
from ..kernel.engine import SimulationEngine
from ..kernel.errors import ModelError
from ..signals import Fifo, Signal


class ConsoleSink:
    """Host-side terminal endpoint (stand-in for the paper's PTY).

    Collects transmitted characters and counts flushes; ``system_call_cost``
    models the host-side work a PTY write would cost, purely as a counter
    so tests can assert how much host interaction a model configuration
    generated.
    """

    def __init__(self, echo: bool = False) -> None:
        self.echo = echo
        self._chars: list[str] = []
        self.flush_count = 0

    def write_char(self, value: int) -> None:
        """Receive one transmitted character."""
        self._chars.append(chr(value & 0xFF))
        self.flush_count += 1
        if self.echo:  # pragma: no cover - interactive convenience
            print(chr(value & 0xFF), end="", flush=True)

    @property
    def text(self) -> str:
        """Everything transmitted so far."""
        return "".join(self._chars)

    def lines(self) -> list[str]:
        """Transmitted text split into lines (ignores a trailing newline)."""
        return self.text.splitlines()

    def clear(self) -> None:
        """Forget everything received so far."""
        self._chars.clear()


class UartLite(OpbSlave):
    """OPB UART Lite with a transmit thread using multicycle sleep."""

    latency = 1

    REG_RX_FIFO = 0x0
    REG_TX_FIFO = 0x4
    REG_STATUS = 0x8
    REG_CONTROL = 0xC

    STATUS_RX_VALID = 0x01
    STATUS_TX_EMPTY = 0x04
    STATUS_TX_FULL = 0x08

    CONTROL_RESET_TX = 0x01
    CONTROL_RESET_RX = 0x02
    CONTROL_ENABLE_INTERRUPT = 0x10

    def __init__(self, sim: SimulationEngine, name: str, base_address: int,
                 interconnect: OpbInterconnect, clock,
                 console: Optional[ConsoleSink] = None,
                 fifo_depth: int = 16,
                 tx_sleep_cycles: int = 16,
                 use_method: bool = True,
                 **slave_options) -> None:
        super().__init__(sim, name, base_address, 0x100, interconnect, clock,
                         use_method=use_method, **slave_options)
        self.console = console if console is not None else ConsoleSink()
        self.tx_fifo: Fifo[int] = Fifo(sim, f"{name}.tx_fifo", fifo_depth)
        self.rx_fifo: Fifo[int] = Fifo(sim, f"{name}.rx_fifo", fifo_depth)
        #: How many cycles the transmit thread sleeps between activations.
        #: 1 disables the multicycle-sleep optimisation (scheduled every
        #: cycle); larger values amortise host interaction (section 4.5.2).
        self.tx_sleep_cycles = max(1, tx_sleep_cycles)
        self.interrupt_enabled = False
        #: Level interrupt output (TX became empty or RX became valid).
        self.interrupt = Signal(sim, f"{name}.interrupt", 0)
        #: Activations of the transmit thread (to show the sleep saving).
        self.tx_thread_activations = 0
        self._tx_thread = self.sc_thread(self._transmit_thread,
                                         sensitive=[clock.posedge_event()],
                                         dont_initialize=True,
                                         name="tx")
        self.warp_processes = (self._tx_thread,)
        #: While a warp holds the thread parked (see :meth:`park`): its
        #: parked wake, the next wake on its grid, and whether it is exact.
        self._parked_wake = self._next_wake = 0
        self._exact = False

    # -- bus-facing register behaviour ---------------------------------------
    def read_register(self, offset: int, size: int) -> int:
        offset &= 0xF
        if offset == self.REG_RX_FIFO:
            value = self.rx_fifo.nb_read()
            return value if value is not None else 0
        if offset == self.REG_STATUS:
            status = 0
            if not self.rx_fifo.empty:
                status |= self.STATUS_RX_VALID
            if self.tx_fifo.empty:
                status |= self.STATUS_TX_EMPTY
            if self.tx_fifo.full:
                status |= self.STATUS_TX_FULL
            return status
        return 0

    def write_register(self, offset: int, value: int, size: int) -> None:
        offset &= 0xF
        if offset == self.REG_TX_FIFO:
            # A full FIFO drops the character, as the hardware would when
            # software ignores the status register.
            self.tx_fifo.nb_write(value & 0xFF)
        elif offset == self.REG_CONTROL:
            if value & self.CONTROL_RESET_TX:
                self.tx_fifo.drain()
            if value & self.CONTROL_RESET_RX:
                self.rx_fifo.drain()
            self.interrupt_enabled = bool(
                value & self.CONTROL_ENABLE_INTERRUPT)

    # -- host side ----------------------------------------------------------------
    def receive_char(self, character: "str | int") -> bool:
        """Inject a character as if typed on the attached terminal."""
        value = ord(character) if isinstance(character, str) else character
        accepted = self.rx_fifo.nb_write(value & 0xFF)
        if accepted and self.interrupt_enabled:
            self.interrupt.write(1)
        return accepted

    # -- checkpoint / restore ------------------------------------------------
    def capture_state(self) -> dict:
        """Plain-data snapshot of the UART and its console (the FIFOs are
        state children).

        With multicycle sleep active the transmit thread must be parked on
        its timed sleep (the absolute wake time is captured); with
        ``tx_sleep_cycles <= 1`` it parks on static clock sensitivity and
        needs no re-arm.
        """
        wake = self._tx_thread.timed_wake_ps
        if wake is None and self.tx_sleep_cycles > 1:
            raise ModelError(
                f"snapshot requires UART {self.name!r} transmit thread to "
                f"be parked")
        return {
            "interrupt_enabled": self.interrupt_enabled,
            "tx_thread_activations": self.tx_thread_activations,
            "transactions": self.transactions,
            "console_chars": list(self.console._chars),
            "console_flushes": self.console.flush_count,
            "wake_time_ps": wake,
        }

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`capture_state` output into a fresh UART.

        Pre-starts the transmit thread on empty state (it drains nothing
        and parks) with its timed sleep re-armed at its absolute snapshot
        time, then injects the saved console contents; the FIFOs restore
        as state children.
        """
        self._tx_thread.prestart(state["wake_time_ps"])
        self.interrupt_enabled = state["interrupt_enabled"]
        self.tx_thread_activations = state["tx_thread_activations"]
        self.transactions = state["transactions"]
        self.console._chars[:] = state["console_chars"]
        self.console.flush_count = state["console_flushes"]

    def state_children(self) -> dict:
        return {"interrupt": self.interrupt, "tx_fifo": self.tx_fifo,
                "rx_fifo": self.rx_fifo}

    # -- warp participant (a quantum-level CPU running ahead) ----------------
    def warp_ready(self, servicing: bool) -> bool:
        """Whether the CPU may run ahead of the clock: the transmit thread
        asleep on its own timeout, and no interrupt generation a warp
        could delay.  A non-empty TX FIFO is fine: the drains the warp
        runs across are replayed (:meth:`resume`)."""
        return self._tx_thread.timed_wake_ps is not None \
            and not self.interrupt_enabled

    def park(self) -> None:
        """Hold the transmit thread's wake for the length of a warp.

        The wake grid is tracked so accesses can replay the drains that
        precede them.  It is *exact* -- every wake replayed at
        :meth:`resume` instead of skipped -- when characters are already
        buffered (their drains are observable), or once the warp replays
        a drain or writes to it.
        """
        self._parked_wake = self._next_wake = self._tx_thread.hold_wake()
        self._exact = not self.tx_fifo.empty

    def unpark(self) -> None:
        """Revive the parked wake in place (the warp charged nothing)."""
        self._tx_thread.revive_wake()

    def resume(self, now: int) -> None:
        """Re-arm the transmit thread after a warp that ended at ``now``.

        An exact UART replays the wakes it owes (the ones strictly before
        ``now``) and resumes on its own wake grid, so activation counts and
        drain timing match the per-cycle path; any other resumes at its
        parked wake, or the first grid point at or after ``now``.
        """
        wake = self._parked_wake
        if self._exact:
            self.catch_up(now - 1)
            wake = self._next_wake
        elif wake < now:
            sleep_ps = self.tx_sleep_cycles * self.clock.period_ps
            wake += -(-(now - wake) // sleep_ps) * sleep_ps
        self._tx_thread.wake_at(wake)

    def catch_up(self, edge_ps: int) -> None:
        """Replay the parked thread's drain wakes due up to ``edge_ps``
        (inclusive), marking the UART exact if there were any.

        Exactly the thread's per-activation body (interrupt generation
        keeps a warp from starting), along its own wake grid.
        """
        wake = self._next_wake
        if wake > edge_ps:
            return
        sleep_ps = self.tx_sleep_cycles * self.clock.period_ps
        while wake <= edge_ps:
            self.tx_thread_activations += 1
            while not self.tx_fifo.empty:
                self.console.write_char(self.tx_fifo.nb_read())
            wake += sleep_ps
        self._next_wake = wake
        self._exact = True

    def warp_serves(self, address: int, value) -> bool:
        """Every access but a ``CONTROL`` store that enables the interrupt,
        whose generation would move with the warp."""
        return value is None \
            or (address - self.base_address) & 0xF != self.REG_CONTROL \
            or not value & self.CONTROL_ENABLE_INTERRUPT

    def warp_access(self, address: int, value, size: int, edge_ps: int):
        """Replay the drains due by the access edge first (their timed
        wakes were queued cycles earlier), then perform the access."""
        self.catch_up(edge_ps)
        if value is not None:
            self._exact = True
        return super().warp_access(address, value, size, edge_ps)

    def _transmit_thread(self):
        """Drain the TX FIFO towards the console.

        The thread wakes every ``tx_sleep_cycles`` clock cycles instead of
        every cycle; the PTY (console sink) can accept characters much
        faster than software fills the FIFO, so nothing is lost -- only
        scheduler activations and host system calls are saved.
        """
        clock_period = self.clock.period_ps
        while True:
            self.tx_thread_activations += 1
            while not self.tx_fifo.empty:
                character = self.tx_fifo.nb_read()
                self.console.write_char(character)
            if self.interrupt_enabled:
                self.interrupt.write(1 if not self.rx_fifo.empty else 0)
            if self.tx_sleep_cycles <= 1:
                yield None
            else:
                yield clock_period * self.tx_sleep_cycles

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"UartLite({self.name!r}, base={self.base_address:#010x}, "
                f"tx_sleep={self.tx_sleep_cycles})")

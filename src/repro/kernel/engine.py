"""The simulation-engine abstraction.

:class:`SimulationEngine` is the seam between *models* (modules, signals,
ports, buses, the ISS wrapper) and the *machinery that executes them*.
Models only ever talk to this interface; which concrete engine runs them is
a configuration decision (``ModelConfig.engine`` at the platform layer).

Two engines implement the interface:

* :class:`~repro.kernel.scheduler.Simulator` -- the general-purpose
  evaluate/update/delta kernel with a ``heapq`` timed queue.  It makes no
  assumption about the model and is the reference for behaviour.
* :class:`~repro.kernel.clocked.ClockedEngine` -- a fast path exploiting the
  fact that the VanillaNet platform is a single-clock synchronous design:
  clock edges are generated arithmetically (no timed-queue traffic), the
  processes statically sensitive to a clock edge are dispatched from a
  precomputed activation schedule, remaining timed notifications live in a
  bucketed event wheel keyed by absolute time, and value-changed events
  nobody observes are dropped instead of queued.

The shared evaluate / update / delta-notify semantics (SystemC 2.x) live
here so both engines execute models identically:

1. *Evaluation phase*: every runnable process executes.
2. *Update phase*: each primitive channel with a pending update request
   commits its new value (a flat commit list, drained in request order).
3. *Delta-notification phase*: queued delta notifications trigger their
   processes; if any process became runnable a new delta cycle starts.
4. Otherwise simulation time advances -- and *how* it advances is the one
   thing each engine defines for itself (:meth:`_advance_time`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, List, Optional

from .errors import KernelError, SimulationStopped
from .events import Event
from .process import MethodProcess, Process, ThreadProcess
from .simtime import SimTime, _as_ps
from .statistics import KernelStatistics

#: Engine selector values understood by :func:`create_engine` and by the
#: platform layer's ``ModelConfig.engine`` field.
ENGINE_GENERIC = "generic"
ENGINE_CLOCKED = "clocked"


class SimulationEngine:
    """The simulation context: owns time, processes, channels and events.

    A model is built by instantiating modules/signals against an engine and
    then calling :meth:`run`.  The engine can be resumed repeatedly, which
    the non-cycle-accurate experiments use to toggle optimisations at run
    time (paper section 5).

    Subclasses implement the timed-notification storage and the
    time-advance step; everything else -- process registration, the
    evaluation/update/delta phases, statistics -- is shared so that every
    engine executes a model with identical semantics.
    """

    #: Engine selector this class answers to (see :func:`create_engine`).
    kind = "abstract"

    def __init__(self, name: str = "sim") -> None:
        self.name = name
        self.time_ps: int = 0
        self.delta_count: int = 0
        self.stats = KernelStatistics()
        self.stats.bind_process_provider(self._live_processes)
        self._runnable: deque[Process] = deque()
        self._update_queue: list = []
        self._delta_events: list[Event] = []
        self._processes: list[Process] = []
        self._current_process: Optional[Process] = None
        self._initialized = False
        self._stop_requested = False
        self._finished = False
        self._max_delta_cycles = 10_000
        self._run_end_time: Optional[int] = None
        self._end_of_elaboration_callbacks: list[Callable[[], None]] = []
        self._activation_trace: Optional[List[str]] = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @property
    def current_time(self) -> SimTime:
        """Current simulation time as a :class:`SimTime`."""
        return SimTime(self.time_ps)

    @property
    def current_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._current_process

    def create_event(self, name: str = "") -> Event:
        """Create a free-standing event bound to this engine."""
        return Event(self, name)

    def register_process(self, process: Process) -> Process:
        """Track a process (called by module/spawn helpers)."""
        self._processes.append(process)
        if self._initialized and not process.dont_initialize:
            process._make_runnable()
        return process

    def spawn_thread(self, name: str, func: Callable,
                     sensitive: Iterable[Event] = (),
                     dont_initialize: bool = False) -> ThreadProcess:
        """Create and register a thread process outside any module."""
        process = ThreadProcess(self, name, func, sensitive, dont_initialize)
        return self.register_process(process)  # type: ignore[return-value]

    def spawn_method(self, name: str, func: Callable,
                     sensitive: Iterable[Event] = (),
                     dont_initialize: bool = False) -> MethodProcess:
        """Create and register a method process outside any module."""
        process = MethodProcess(self, name, func, sensitive, dont_initialize)
        return self.register_process(process)  # type: ignore[return-value]

    def on_end_of_elaboration(self, callback: Callable[[], None]) -> None:
        """Register a callback run once, just before simulation starts."""
        self._end_of_elaboration_callbacks.append(callback)

    def next_trigger(self, spec=None) -> None:
        """Forward ``next_trigger`` to the currently running method process."""
        process = self._current_process
        if not isinstance(process, MethodProcess):
            raise KernelError("next_trigger() may only be called from a "
                              "method process")
        process.next_trigger(spec)

    def adopt_clock(self, clock, first_delay_ps: int) -> bool:
        """Offer a free-running clock to the engine for direct generation.

        The generic engine declines (the clock then self-schedules its edges
        through :meth:`schedule_action`); the clocked engine accepts and
        produces the edges arithmetically.  Returns True when adopted.
        """
        return False

    # ------------------------------------------------------------------ #
    # queues used by events / channels / processes
    # ------------------------------------------------------------------ #
    def _queue_runnable(self, process: Process) -> None:
        self._runnable.append(process)

    def _queue_delta_notification(self, event: Event) -> None:
        self._delta_events.append(event)

    def _queue_timed_notification(self, time_ps: int, event: Event) -> None:
        raise NotImplementedError

    def schedule_action(self, delay: "SimTime | int",
                        action: Callable[[], None]) -> None:
        """Schedule a bare callable to run at ``now + delay``.

        Used by primitive channels such as the clock that need precise timed
        self-scheduling without a full process.
        """
        raise NotImplementedError

    def _cancel_notification(self, event: Event) -> None:
        if event in self._delta_events:
            self._delta_events = [e for e in self._delta_events
                                  if e is not event]
        self._cancel_timed_notification(event)

    def _cancel_timed_notification(self, event: Event) -> None:
        raise NotImplementedError

    def request_update(self, channel) -> None:
        """Request that ``channel._update()`` run in the next update phase.

        Updates are batched into a flat commit list drained once per delta
        cycle; the ``_update_requested`` flag keeps a channel from entering
        the list twice no matter how often it is written in one phase.
        """
        if not channel._update_requested:
            channel._update_requested = True
            self._update_queue.append(channel)

    # ------------------------------------------------------------------ #
    # simulation control
    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Stop the simulation at the end of the current process execution."""
        self._stop_requested = True

    @property
    def finished(self) -> bool:
        """True when no further activity is possible."""
        return self._finished

    @property
    def run_end_ps(self) -> Optional[int]:
        """End of the active :meth:`run` window in picoseconds (None for an
        unbounded run).  Temporally-decoupled models consult this so a
        warp never charges time past the point where the caller regains
        control -- external stimulus applied between ``run`` calls then
        lands on the same cycle at every abstraction level."""
        return self._run_end_time

    @property
    def quiescent(self) -> bool:
        """True when no process is runnable and no channel update or delta
        notification is pending (timed notifications may be)."""
        return not (self._runnable or self._update_queue
                    or self._delta_events)

    def initialize(self) -> None:
        """Run elaboration callbacks and seed the initial runnable set."""
        if self._initialized:
            return
        for callback in self._end_of_elaboration_callbacks:
            callback()
        for process in self._processes:
            if not process.dont_initialize:
                process._make_runnable()
        self._initialized = True

    def restore_reset(self, time_ps: int, delta_count: int) -> None:
        """Prepare a freshly elaborated engine for snapshot restoration.

        Runs end-of-elaboration callbacks and marks the engine initialized
        *without* seeding the initial runnable set (the snapshot was taken
        from a quiescent platform whose processes are all parked waiting on
        events), drops any construction-time queue contents, and jumps
        simulation time to the snapshot point.  The restorer then re-arms
        the timed notifications recorded in the snapshot.
        """
        if self._initialized:
            raise KernelError("restore_reset() requires a fresh engine")
        for callback in self._end_of_elaboration_callbacks:
            callback()
        self._initialized = True
        self._runnable.clear()
        self._update_queue.clear()
        self._delta_events.clear()
        self._clear_timed_state()
        self.time_ps = time_ps
        self.delta_count = delta_count
        self._finished = False

    def _clear_timed_state(self) -> None:
        """Drop every queued timed notification (engine-specific storage)."""
        raise NotImplementedError

    def restore_clock_edge(self, clock, next_edge_ps: int) -> None:
        """Re-arm a clock's next edge at an absolute time after a restore.

        The generic path reschedules the clock's ``_edge`` callback on the
        timed queue (the construction-time entry was dropped by
        :meth:`restore_reset`); the clocked engine instead updates its
        adopted-clock arithmetic state.
        """
        self.schedule_action(next_edge_ps - self.time_ps, clock._edge)

    def run(self, duration: "SimTime | int | None" = None) -> SimTime:
        """Advance the simulation.

        ``duration`` limits how far simulation time may advance (relative to
        the current time); ``None`` runs until no activity remains or
        :meth:`stop` is called.  Returns the simulation time reached.
        """
        self.initialize()
        self._stop_requested = False
        end_time = None
        if duration is not None:
            end_time = self.time_ps + _as_ps(duration)
        self._run_end_time = end_time
        try:
            self._run_loop(end_time)
        except SimulationStopped:
            pass
        finally:
            self._run_end_time = None
        return SimTime(self.time_ps)

    # ------------------------------------------------------------------ #
    # the main loop
    # ------------------------------------------------------------------ #
    def _run_loop(self, end_time: Optional[int]) -> None:
        stats = self.stats
        while True:
            # -- evaluation + update + delta loop at the current time ------
            deltas_here = 0
            while self._runnable or self._update_queue or self._delta_events:
                if self._runnable:
                    self._evaluation_phase()
                    if self._stop_requested:
                        return
                if self._update_queue:
                    self._update_phase()
                if self._delta_events:
                    self._delta_notification_phase()
                if self._runnable:
                    self.delta_count += 1
                    stats.delta_cycles += 1
                    deltas_here += 1
                    if deltas_here > self._max_delta_cycles:
                        raise KernelError(
                            f"more than {self._max_delta_cycles} delta "
                            f"cycles at time {self.current_time}; "
                            f"probable combinational loop")
            # -- advance time (engine-specific) ----------------------------
            if not self._advance_time(end_time, stats):
                return
            if self._stop_requested:
                # stop() was called from code run during the time advance
                # (a scheduled action, or a process the clocked engine's
                # edge schedule executed in place): abort before the next
                # evaluation phase, leaving anything already triggered
                # queued for a later resume.
                return

    def _advance_time(self, end_time: Optional[int], stats) -> bool:
        """Advance to the next timed activity.

        Returns True when the delta loop should run again at the new time,
        False when the run is over (no activity left, or ``end_time``
        reached -- the engine sets ``time_ps`` / ``_finished`` accordingly).
        """
        raise NotImplementedError

    def _deliver_timed_item(self, item, next_time: int, stats) -> None:
        """Fire one matured timed-queue entry (an Event or bare callable).

        Shared by every engine so the staleness rule stays in one place:
        an event whose pending notification no longer names this timestamp
        was re-notified earlier, overridden by a delta notification, or
        already delivered -- firing it would double-notify, so it is
        skipped.
        """
        if isinstance(item, Event):
            if item._pending_kind == "timed" \
                    and item._pending_time == next_time:
                stats.events_notified += 1
                item.trigger_processes()
        else:
            item()

    def _evaluation_phase(self) -> None:
        stats = self.stats
        runnable = self._runnable
        trace = self._activation_trace
        while runnable:
            process = runnable.popleft()
            stats.process_activations += 1
            if trace is not None:
                trace.append(process.name)
            process.execute()
            if self._stop_requested:
                return

    def _update_phase(self) -> None:
        queue = self._update_queue
        self._update_queue = []
        self.stats.channel_updates += len(queue)
        for channel in queue:
            channel._update_requested = False
            channel._update()

    def _delta_notification_phase(self) -> None:
        events = self._delta_events
        self._delta_events = []
        self.stats.events_notified += len(events)
        for event in events:
            event.trigger_processes()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def _live_processes(self) -> list[Process]:
        return self._processes

    @property
    def processes(self) -> tuple[Process, ...]:
        """All registered processes."""
        return tuple(self._processes)

    def process_count(self, kind: Optional[str] = None) -> int:
        """Number of registered processes, optionally filtered by kind."""
        if kind is None:
            return len(self._processes)
        return sum(1 for process in self._processes if process.kind == kind)

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def enable_activation_trace(self) -> List[str]:
        """Record the name of every process activation from now on.

        Returns the (live) list the engine appends to.  Used by the
        determinism regression tests to compare activation order between
        runs; the recording costs one check per activation, so it is off by
        default.
        """
        if self._activation_trace is None:
            self._activation_trace = []
        return self._activation_trace

    @property
    def activation_trace(self) -> Optional[List[str]]:
        """The recorded activation order (None unless enabled)."""
        return self._activation_trace

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}({self.name!r}, t={self.current_time},"
                f" processes={len(self._processes)})")


def _engine_registry() -> dict:
    """The single selector-name -> engine-class registry.

    Built on demand because the concrete engines import this module.
    """
    from .clocked import ClockedEngine
    from .scheduler import Simulator

    return {ENGINE_GENERIC: Simulator, ENGINE_CLOCKED: ClockedEngine}


def create_engine(kind: str = ENGINE_GENERIC,
                  name: str = "sim") -> SimulationEngine:
    """Instantiate a simulation engine by selector name.

    ``"generic"`` builds the general-purpose
    :class:`~repro.kernel.scheduler.Simulator`; ``"clocked"`` builds the
    synchronous fast-path :class:`~repro.kernel.clocked.ClockedEngine`.
    """
    engines = _engine_registry()
    try:
        engine_class = engines[kind]
    except KeyError:
        raise KernelError(
            f"unknown simulation engine {kind!r}; "
            f"expected one of {sorted(engines)}") from None
    return engine_class(name)


def engine_kinds() -> tuple[str, ...]:
    """All engine selector names accepted by :func:`create_engine`."""
    return tuple(_engine_registry())

"""Process abstractions: thread processes and method processes.

SystemC offers two process kinds and the distinction is central to the
paper's section 4.3 ("Threads vs Methods"):

* ``SC_THREAD``  -- may span multiple cycles, suspends in ``wait``.  Here a
  thread is a Python *generator*: the model code ``yield``\\ s wait
  specifications (``None`` for the static sensitivity list, an
  :class:`~repro.kernel.events.Event`, an event or-list, or a time).
* ``SC_METHOD``  -- runs to completion every activation; cheaper to schedule
  because no execution state must be preserved.

Both are represented by :class:`Process` subclasses.  The scheduler only
interacts with ``trigger_static`` / ``trigger_dynamic`` / ``execute``.
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .errors import KernelError
from .events import Event, EventOrList
from .simtime import SimTime, _as_ps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import SimulationEngine


class Process:
    """Common behaviour shared by thread and method processes."""

    __slots__ = ("sim", "name", "func", "static_sensitivity",
                 "dont_initialize", "terminated", "activation_count",
                 "_runnable_queued", "_waiting_dynamic")

    kind = "process"

    def __init__(self, sim: "SimulationEngine", name: str,
                 func: Callable, sensitivity: Iterable[Event] = (),
                 dont_initialize: bool = False) -> None:
        self.sim = sim
        self.name = name
        self.func = func
        self.static_sensitivity: list[Event] = list(sensitivity)
        self.dont_initialize = dont_initialize
        self.terminated = False
        #: Number of times the scheduler has executed this process.  The
        #: figure-2 experiments use this to demonstrate scheduling load.
        self.activation_count = 0
        self._runnable_queued = False
        self._waiting_dynamic: tuple[Event, ...] = ()
        for event in self.static_sensitivity:
            event.add_static(self)

    # -- sensitivity --------------------------------------------------------
    def clear_sensitivity(self) -> None:
        """Remove every static sensitivity entry."""
        for event in self.static_sensitivity:
            event.remove_static(self)
        self.static_sensitivity.clear()

    # -- triggering ---------------------------------------------------------
    def trigger_static(self, event: Event) -> None:
        """Called when a statically-watched event fires."""
        raise NotImplementedError

    def trigger_dynamic(self, event: Event) -> None:
        """Called when a dynamically-watched event fires."""
        raise NotImplementedError

    def _make_runnable(self) -> None:
        if self.terminated or self._runnable_queued:
            return
        self._runnable_queued = True
        self.sim._queue_runnable(self)

    def _clear_dynamic_wait(self) -> None:
        for event in self._waiting_dynamic:
            event.remove_dynamic(self)
        self._waiting_dynamic = ()

    # -- execution ----------------------------------------------------------
    def execute(self) -> None:
        """Run (or resume) the process body.  Called only by the scheduler."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"


class MethodProcess(Process):
    """A run-to-completion process (``SC_METHOD``).

    The function is invoked every time one of its sensitivity events fires.
    Inside the function, ``next_trigger`` (via the owning module or the
    simulator) replaces the sensitivity for exactly the next activation --
    used by the paper's section 4.5.2 "multicycle sleep" optimisation.
    """

    __slots__ = ("_next_trigger_override", "_timeout_event",
                 "_timeout_armed")

    kind = "method"

    def __init__(self, sim: "SimulationEngine", name: str,
                 func: Callable, sensitivity: Iterable[Event] = (),
                 dont_initialize: bool = False) -> None:
        super().__init__(sim, name, func, sensitivity, dont_initialize)
        self._next_trigger_override: Optional[tuple] = None
        self._timeout_event = Event(sim, f"{name}.timeout")
        self._timeout_event.add_static(self)
        self._timeout_armed = False

    def trigger_static(self, event: Event) -> None:
        if event is self._timeout_event:
            if not self._timeout_armed:
                return
            self._timeout_armed = False
            self._make_runnable()
            return
        if self._timeout_armed or self._next_trigger_override is not None:
            # A next_trigger override is active; ignore static sensitivity
            # until it matures.
            if event not in self._override_events():
                return
        self._make_runnable()

    def trigger_dynamic(self, event: Event) -> None:
        self._make_runnable()

    def _override_events(self) -> tuple[Event, ...]:
        if self._next_trigger_override is None:
            return ()
        return self._next_trigger_override

    def next_trigger(self, spec: "SimTime | int | Event | EventOrList | None"
                     = None) -> None:
        """Set what re-activates this method *next time only*.

        ``None`` restores the static sensitivity list, a time arms a timed
        wake-up, an event (or or-list) waits for those events.
        """
        # Reset any previous override.
        self._next_trigger_override = None
        self._timeout_armed = False
        if spec is None:
            return
        if isinstance(spec, Event):
            self._next_trigger_override = (spec,)
            spec.add_dynamic(self)
        elif isinstance(spec, EventOrList):
            self._next_trigger_override = tuple(spec.events)
            for event in spec.events:
                event.add_dynamic(self)
        else:
            delay_ps = _as_ps(spec)
            self._timeout_armed = True
            self._timeout_event.notify(delay_ps)

    def execute(self) -> None:
        self._runnable_queued = False
        if self.terminated:
            return
        self._clear_dynamic_wait()
        override_was_active = (self._next_trigger_override is not None
                               or self._timeout_armed)
        self._next_trigger_override = None
        self.activation_count += 1
        self.sim._current_process = self
        try:
            self.func()
        finally:
            self.sim._current_process = None
        # If the method did not call next_trigger during this activation the
        # static sensitivity applies again -- which is the default already.
        del override_was_active


class ThreadProcess(Process):
    """A multi-cycle process (``SC_THREAD``) implemented as a generator.

    The wrapped function may be:

    * a generator function -- each ``yield`` suspends the thread.  The value
      yielded selects what to wait for: ``None`` (static sensitivity), an
      :class:`Event`, an :class:`EventOrList`, an ``int``/:class:`SimTime`
      delay, or an iterable of events.
    * a plain function -- executed once at start of simulation and then the
      thread terminates (SystemC threads that never ``wait`` behave the same
      way).
    """

    __slots__ = ("_generator", "_started", "_timeout_event",
                 "_waiting_static", "_waiting_time")

    kind = "thread"

    def __init__(self, sim: "SimulationEngine", name: str,
                 func: Callable, sensitivity: Iterable[Event] = (),
                 dont_initialize: bool = False) -> None:
        super().__init__(sim, name, func, sensitivity, dont_initialize)
        self._generator = None
        self._started = False
        self._timeout_event = Event(sim, f"{name}.timeout")
        # A dont_initialize thread starts life suspended on its static
        # sensitivity (it runs for the first time when that fires).
        self._waiting_static = dont_initialize
        self._waiting_time = False

    # -- triggering ---------------------------------------------------------
    def trigger_static(self, event: Event) -> None:
        # A thread only reacts to its static sensitivity while suspended in a
        # plain ``yield`` (wait()).  While waiting dynamically or on time it
        # ignores static events, exactly like SystemC.
        if self._waiting_static:
            self._make_runnable()

    def trigger_dynamic(self, event: Event) -> None:
        self._clear_dynamic_wait()
        self._waiting_time = False
        self._make_runnable()

    # -- the timed wake, for snapshots and temporal decoupling ---------------
    @property
    def timed_wake_ps(self) -> Optional[int]:
        """The absolute time a pending timed wait wakes the thread at, or
        None."""
        event = self._timeout_event
        if self._waiting_time and event._pending_kind == "timed":
            return event._pending_time
        return None

    def hold_wake(self) -> int:
        """Hold the timed wake and return its time: the queued entry goes
        stale in place (a cancel would rebuild the generic engine's heap)."""
        event = self._timeout_event
        event._pending_kind = None
        return event._pending_time

    def revive_wake(self) -> None:
        """Make the entry :meth:`hold_wake` left queued live again."""
        self._timeout_event._pending_kind = "timed"

    def wake_at(self, time_ps: int) -> None:
        """Re-arm the timed wake at absolute ``time_ps``."""
        event = self._timeout_event
        if event._pending_kind is not None:
            event.cancel()
        event.notify(time_ps - self.sim.time_ps)

    def prestart(self, wake_ps: Optional[int]) -> None:
        """Run a fresh thread to its first wait outside the scheduler (a
        snapshot restore), then re-arm its timed wake at ``wake_ps``."""
        if self._started:
            raise KernelError(f"thread {self.name!r} already started")
        self.execute()
        if wake_ps is not None:
            self.wake_at(wake_ps)

    # -- execution ----------------------------------------------------------
    def execute(self) -> None:
        self._runnable_queued = False
        if self.terminated:
            return
        self._waiting_static = False
        self._waiting_time = False
        self._clear_dynamic_wait()
        self.activation_count += 1
        self.sim._current_process = self
        try:
            if not self._started:
                self._started = True
                result = self.func()
                if inspect.isgenerator(result):
                    self._generator = result
                    self._advance()
                else:
                    # Plain function: it already ran to completion.
                    self.terminated = True
            else:
                self._advance()
        finally:
            self.sim._current_process = None

    def _advance(self) -> None:
        assert self._generator is not None
        try:
            spec = next(self._generator)
        except StopIteration:
            self.terminated = True
            self.clear_sensitivity()
            return
        self._arm_wait(spec)

    def _arm_wait(self, spec) -> None:
        """Suspend on whatever the generator yielded."""
        if spec is None:
            if not self.static_sensitivity:
                raise KernelError(
                    f"thread {self.name!r} waited on static sensitivity "
                    f"but has no sensitivity list")
            self._waiting_static = True
            return
        if isinstance(spec, Event):
            self._waiting_dynamic = (spec,)
            spec.add_dynamic(self)
            return
        if isinstance(spec, EventOrList):
            self._waiting_dynamic = tuple(spec.events)
            for event in spec.events:
                event.add_dynamic(self)
            return
        if isinstance(spec, (int, SimTime, float)):
            delay_ps = _as_ps(spec)
            if delay_ps <= 0:
                # Zero-time wait: resume in the next delta cycle.
                self._waiting_dynamic = (self._timeout_event,)
                self._timeout_event.add_dynamic(self)
                self._timeout_event.notify_delta()
            else:
                self._waiting_time = True
                self._waiting_dynamic = (self._timeout_event,)
                self._timeout_event.add_dynamic(self)
                self._timeout_event.notify(delay_ps)
            return
        if isinstance(spec, (tuple, list)):
            events = tuple(spec)
            if not all(isinstance(event, Event) for event in events):
                raise KernelError(
                    f"thread {self.name!r} yielded an invalid wait "
                    f"specification: {spec!r}")
            self._waiting_dynamic = events
            for event in events:
                event.add_dynamic(self)
            return
        raise KernelError(
            f"thread {self.name!r} yielded an invalid wait specification: "
            f"{spec!r}")

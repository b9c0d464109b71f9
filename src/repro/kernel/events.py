"""Events -- the primitive synchronisation object of the kernel.

An :class:`Event` mirrors ``sc_event``: processes can be statically
sensitive to it (registered at elaboration time) or dynamically waiting on
it (a thread blocked in ``wait`` or a method whose ``next_trigger``
referenced it).  Notification comes in three flavours, exactly as in
SystemC:

* ``notify()``            -- immediate: sensitive processes become runnable
  in the *current* evaluation phase.
* ``notify_delta()``      -- delta: sensitive processes run in the next
  delta cycle of the current time step.
* ``notify(time)``        -- timed: sensitive processes run when simulation
  time has advanced by ``time``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from .simtime import SimTime, _as_ps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import SimulationEngine
    from .process import Process


class Event:
    """A notifiable synchronisation point.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.kernel.engine.SimulationEngine`.
    name:
        Optional diagnostic name (shown in ``repr`` and kernel errors).
    """

    __slots__ = ("sim", "name", "_static_procs", "_dynamic_procs",
                 "_pending_kind", "_pending_time", "_static_version")

    def __init__(self, sim: "SimulationEngine", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._static_procs: list["Process"] = []
        self._dynamic_procs: list["Process"] = []
        # Pending notification bookkeeping so later/earlier notifications
        # interact the way sc_event notifications do (an earlier notification
        # overrides a later one; an immediate overrides everything).
        self._pending_kind: Optional[str] = None
        self._pending_time: int = 0
        # Bumped whenever the static sensitivity list changes, so engines
        # that precompute activation schedules can invalidate their caches.
        self._static_version: int = 0

    # -- sensitivity management -------------------------------------------
    def add_static(self, process: "Process") -> None:
        """Register ``process`` as statically sensitive to this event."""
        if process not in self._static_procs:
            self._static_procs.append(process)
            self._static_version += 1

    def remove_static(self, process: "Process") -> None:
        """Remove ``process`` from the static sensitivity list."""
        if process in self._static_procs:
            self._static_procs.remove(process)
            self._static_version += 1

    def add_dynamic(self, process: "Process") -> None:
        """Register ``process`` as dynamically waiting on this event."""
        self._dynamic_procs.append(process)

    def remove_dynamic(self, process: "Process") -> None:
        """Remove ``process`` from the dynamic wait list (if present)."""
        try:
            self._dynamic_procs.remove(process)
        except ValueError:
            pass

    @property
    def static_processes(self) -> tuple["Process", ...]:
        """The processes statically sensitive to this event."""
        return tuple(self._static_procs)

    @property
    def dynamic_processes(self) -> tuple["Process", ...]:
        """The processes waiting on this event for one activation only."""
        return tuple(self._dynamic_procs)

    # -- notification ------------------------------------------------------
    def notify(self, delay: "SimTime | int | None" = None) -> None:
        """Notify the event.

        ``delay is None`` requests immediate notification, a zero delay
        requests a delta notification, and a positive delay requests a timed
        notification.
        """
        if delay is None:
            self._notify_immediate()
            return
        delay_ps = _as_ps(delay)
        if delay_ps < 0:
            raise ValueError("event notification delay must be >= 0")
        if delay_ps == 0:
            self.notify_delta()
        else:
            self._notify_timed(delay_ps)

    def notify_delta(self) -> None:
        """Request a delta-cycle notification."""
        if self._pending_kind == "immediate":
            return
        self._pending_kind = "delta"
        self.sim._queue_delta_notification(self)

    def _notify_immediate(self) -> None:
        """Trigger all sensitive processes right now."""
        self._pending_kind = "immediate"
        self.trigger_processes()
        self._pending_kind = None

    def _notify_timed(self, delay_ps: int) -> None:
        target = self.sim.time_ps + delay_ps
        if self._pending_kind == "timed" and self._pending_time <= target:
            # An earlier timed notification is already pending; SystemC keeps
            # the earlier one.
            return
        if self._pending_kind in ("immediate", "delta"):
            return
        self._pending_kind = "timed"
        self._pending_time = target
        self.sim._queue_timed_notification(target, self)

    def cancel(self) -> None:
        """Cancel any pending delta or timed notification."""
        self._pending_kind = None
        self.sim._cancel_notification(self)

    # -- used by the scheduler ---------------------------------------------
    def trigger_processes(self) -> None:
        """Make every sensitive process runnable.

        Called by the scheduler when a queued (delta or timed) notification
        matures, or directly for immediate notification.
        """
        self._pending_kind = None
        for process in self._static_procs:
            process.trigger_static(self)
        if self._dynamic_procs:
            waiting = self._dynamic_procs
            self._dynamic_procs = []
            for process in waiting:
                process.trigger_dynamic(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Event({self.name or hex(id(self))})"


class EventOrList:
    """An "any of these events" wait specification.

    Produced by ``event_a | event_b`` so thread processes can write
    ``yield uart_event | timeout_event``.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]) -> None:
        self.events = tuple(events)

    def __or__(self, other: "Event | EventOrList") -> "EventOrList":
        if isinstance(other, EventOrList):
            return EventOrList(self.events + other.events)
        return EventOrList(self.events + (other,))

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


def _event_or(self: Event, other: "Event | EventOrList") -> EventOrList:
    """Combine two events into an :class:`EventOrList` (``a | b``)."""
    if isinstance(other, EventOrList):
        return EventOrList((self,) + other.events)
    return EventOrList((self, other))


# Attach the ``|`` operator without widening Event.__slots__.
Event.__or__ = _event_or  # type: ignore[attr-defined]

"""Signals -- primitive channels with request/update semantics.

Two signal families are provided, matching the paper's section 4.1/4.2
distinction:

* :class:`Signal` -- a single-driver signal carrying a *native* Python value
  (int, bool, anything comparable).  This is the "native C++ data types"
  style.
* :class:`ResolvedSignal` -- a multi-driver signal carrying a
  :class:`~repro.datatypes.logicvector.LogicVector`, with per-driver value
  tracking and resolution in the update phase.  This is the
  ``sc_signal_rv`` style of the paper's initial model, deliberately more
  expensive per access.

Both follow the SystemC evaluate/update protocol: ``write`` stores the new
value and requests an update; the value visible through ``read`` changes
only in the update phase, and a change triggers the value-changed event as a
delta notification.

Both families also share one access interface, so a model reads and drives
either without testing types: ``read_int``/``read_bit`` convert in the
class that owns the value (a native signal returns it as stored, a resolved
one reads X/Z as the caller's default), and ``write``/``release`` take an
optional driver that only the resolved family keys its slots on.
"""

from __future__ import annotations

from enum import Enum
from typing import Generic, Optional, TypeVar

from ..datatypes import LogicVector, resolve_vectors
from ..kernel.component import SimComponent
from ..kernel.engine import SimulationEngine
from ..kernel.errors import MultipleDriverError
from ..kernel.events import Event

ValueT = TypeVar("ValueT")


class DataMode(Enum):
    """Which signal family a model variant instantiates.

    ``RESOLVED`` corresponds to the paper's initial model
    (``sc_signal_rv`` everywhere); ``NATIVE`` to the optimised model using
    plain C++/Python data types (section 4.2).
    """

    RESOLVED = "resolved"
    NATIVE = "native"


class SignalBase(SimComponent):
    """Shared bookkeeping for all signal kinds."""

    __slots__ = ("sim", "name", "_changed_event", "_update_requested",
                 "change_count", "read_count", "write_count")

    def __init__(self, sim: SimulationEngine, name: str) -> None:
        self.sim = sim
        self.name = name
        self._changed_event = Event(sim, f"{name}.value_changed")
        self._update_requested = False
        #: Number of committed value changes (used by the tracer and tests).
        self.change_count = 0
        #: Number of ``read`` calls -- the quantity section 4.4 reduces.
        self.read_count = 0
        #: Number of ``write`` calls.
        self.write_count = 0

    def default_event(self) -> Event:
        """The value-changed event (what sensitivity lists bind to)."""
        return self._changed_event

    def value_changed_event(self) -> Event:
        """Alias for :meth:`default_event`, mirroring the SystemC name."""
        return self._changed_event

    # -- checkpoint / restore ------------------------------------------------
    def capture_state(self) -> dict:
        """Committed value plus the access counters.

        Only the *committed* value is meaningful at a snapshot point: the
        platform is quiescent, so no update is pending (subclasses with a
        next-value slot record it anyway for exactness).
        """
        return {
            "current": self._current,
            "change_count": self.change_count,
            "read_count": self.read_count,
            "write_count": self.write_count,
        }

    def restore_state(self, state: dict) -> None:
        """Set the committed value and counters without an update phase.

        Writing the private slots directly is this class's own business --
        a restore must not generate value-changed events or deltas.
        """
        self._current = state["current"]
        self.change_count = state["change_count"]
        self.read_count = state["read_count"]
        self.write_count = state["write_count"]


class Signal(SignalBase, Generic[ValueT]):
    """Single-driver signal carrying a native Python value."""

    __slots__ = ("_current", "_next", "_posedge_event", "_negedge_event")

    def __init__(self, sim: SimulationEngine, name: str,
                 initial: ValueT = 0) -> None:  # type: ignore[assignment]
        super().__init__(sim, name)
        self._current: ValueT = initial
        self._next: ValueT = initial
        self._posedge_event: Optional[Event] = None
        self._negedge_event: Optional[Event] = None

    # -- access --------------------------------------------------------------
    def read(self) -> ValueT:
        """Current (committed) value."""
        self.read_count += 1
        return self._current

    def read_int(self, default: int = 0) -> ValueT:
        """Committed value as an integer: the stored value itself.

        A native value is never unknown, so ``default`` is unused; it is
        accepted so callers read both signal families alike.
        """
        self.read_count += 1
        return self._current

    #: A bit read is the integer read of a 1-bit signal (0 or 1).
    read_bit = read_int

    def write(self, value: ValueT, driver: Optional[object] = None) -> None:
        """Schedule ``value`` to become visible in the next update phase.

        A native signal has a single value slot, so ``driver`` is unused.
        """
        self.write_count += 1
        self._next = value
        self.sim.request_update(self)

    def release(self, driver: Optional[object] = None) -> None:
        """Stop driving: without tri-state, a native signal drives 0."""
        self.write(0)

    @property
    def value(self) -> ValueT:
        """The committed value without counting as a modelled port read."""
        return self._current

    @property
    def pending_value(self) -> ValueT:
        """The value the next update phase commits: the last value written
        when an update is pending, the committed value otherwise (not
        counted as a modelled port read either)."""
        return self._next if self._update_requested else self._current

    def force(self, value: ValueT) -> None:
        """Set the value immediately, bypassing the update phase.

        Only used by testbenches and the non-cycle-accurate fast paths where
        the paper explicitly gives up the request/update discipline.
        """
        changed = value != self._current
        self._current = value
        self._next = value
        if changed:
            self._on_change()

    # -- edge events (meaningful for boolean-valued signals) -----------------
    def posedge_event(self) -> Event:
        """Event notified when the committed value becomes truthy."""
        if self._posedge_event is None:
            self._posedge_event = Event(self.sim, f"{self.name}.posedge")
        return self._posedge_event

    def negedge_event(self) -> Event:
        """Event notified when the committed value becomes falsy."""
        if self._negedge_event is None:
            self._negedge_event = Event(self.sim, f"{self.name}.negedge")
        return self._negedge_event

    # -- checkpoint / restore ------------------------------------------------
    def capture_state(self) -> dict:
        state = super().capture_state()
        state["next"] = self._next
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._next = state.get("next", state["current"])

    # -- update protocol -------------------------------------------------------
    def _update(self) -> None:
        if self._next != self._current:
            self._current = self._next
            self._on_change()

    def _on_change(self) -> None:
        self.change_count += 1
        self._changed_event.notify_delta()
        if self._posedge_event is not None and self._current:
            self._posedge_event.notify_delta()
        if self._negedge_event is not None and not self._current:
            self._negedge_event.notify_delta()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Signal({self.name!r}, value={self._current!r})"


class UnresolvedSignal(Signal):
    """A :class:`Signal` that additionally detects multiple drivers.

    The paper notes (section 4.2) that switching to native data types loses
    multiple-driver detection; this subclass exists so tests can demonstrate
    exactly that difference when it is enabled.
    """

    __slots__ = ("_writer_this_delta",)

    def __init__(self, sim: SimulationEngine, name: str, initial=0) -> None:
        super().__init__(sim, name, initial)
        self._writer_this_delta: Optional[object] = None

    def write(self, value, driver: Optional[object] = None) -> None:
        """Write ``value``; the writing *process* is the driver checked,
        whatever port or ``driver`` it writes through."""
        current_writer = self.sim.current_process
        if (self._writer_this_delta is not None
                and current_writer is not None
                and current_writer is not self._writer_this_delta):
            raise MultipleDriverError(
                f"signal {self.name!r} driven by {current_writer!r} and "
                f"{self._writer_this_delta!r} in the same delta cycle")
        self._writer_this_delta = current_writer
        super().write(value)

    def _update(self) -> None:
        self._writer_this_delta = None
        super()._update()


class ResolvedSignal(SignalBase):
    """Multi-driver resolved signal carrying a :class:`LogicVector`.

    Every driver (process or bound output port) owns a *driver slot*; the
    committed value is the resolution of all slots.  This reproduces the
    ``sc_signal_rv`` / ``sc_[in|out]_rv`` machinery whose cost dominates the
    paper's initial model.
    """

    __slots__ = ("width", "_current", "_driver_values", "_dirty",
                 "_posedge_event", "_negedge_event")

    def __init__(self, sim: SimulationEngine, name: str, width: int = 1,
                 initial: "LogicVector | int | None" = None) -> None:
        super().__init__(sim, name)
        self.width = width
        if initial is None:
            self._current = LogicVector.all_z(width)
        elif isinstance(initial, LogicVector):
            self._current = initial
        else:
            self._current = LogicVector(width, initial)
        self._driver_values: dict[object, LogicVector] = {}
        self._dirty = False
        self._posedge_event: Optional[Event] = None
        self._negedge_event: Optional[Event] = None

    # -- access ------------------------------------------------------------------
    def read(self) -> LogicVector:
        """Committed (resolved) value."""
        self.read_count += 1
        return self._current

    def read_int(self, default: int = 0) -> int:
        """Committed value as an unsigned integer; ``default`` when any
        bit is X or Z (an ``sc_lv`` conversion with an explicit default)."""
        self.read_count += 1
        value = self._current
        if not value.is_known():
            return default
        return value.to_int()

    def read_bit(self, default: bool = False) -> bool:
        """Committed value of a 1-bit signal as a boolean; ``default``
        when it is X or Z."""
        return bool(self.read_int(default))

    @property
    def value(self) -> LogicVector:
        """Committed value without incrementing the read counter."""
        return self._current

    def write(self, value: "LogicVector | int | str",
              driver: Optional[object] = None) -> None:
        """Drive the signal from ``driver`` (default: the current process)."""
        self.write_count += 1
        if not isinstance(value, LogicVector):
            value = LogicVector(self.width, value)
        if value.width != self.width:
            raise ValueError(
                f"width mismatch writing {value.width}-bit value to "
                f"{self.width}-bit signal {self.name!r}")
        key = driver if driver is not None else self.sim.current_process
        self._driver_values[key] = value
        self._dirty = True
        self.sim.request_update(self)

    def release(self, driver: Optional[object] = None) -> None:
        """Stop driving the signal from ``driver`` (tri-state release)."""
        key = driver if driver is not None else self.sim.current_process
        if key in self._driver_values:
            del self._driver_values[key]
            self._dirty = True
            self.sim.request_update(self)

    @property
    def driver_count(self) -> int:
        """Number of active drivers."""
        return len(self._driver_values)

    # -- edge events -----------------------------------------------------------
    def posedge_event(self) -> Event:
        """Event notified when bit 0 of the resolved value becomes 1."""
        if self._posedge_event is None:
            self._posedge_event = Event(self.sim, f"{self.name}.posedge")
        return self._posedge_event

    def negedge_event(self) -> Event:
        """Event notified when bit 0 of the resolved value becomes 0."""
        if self._negedge_event is None:
            self._negedge_event = Event(self.sim, f"{self.name}.negedge")
        return self._negedge_event

    # -- update protocol ----------------------------------------------------------
    def _update(self) -> None:
        if not self._dirty:
            return
        self._dirty = False
        resolved = resolve_vectors(self._driver_values.values(), self.width)
        if resolved != self._current:
            self._current = resolved
            self.change_count += 1
            self._changed_event.notify_delta()
            try:
                bit0 = self._current.bit(0).to_bool()
            except ValueError:
                return
            if self._posedge_event is not None and bit0:
                self._posedge_event.notify_delta()
            if self._negedge_event is not None and not bit0:
                self._negedge_event.notify_delta()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResolvedSignal({self.name!r}, value='{self._current}')"


def make_signal(sim: SimulationEngine, name: str, width: int,
                mode: DataMode, initial: int = 0):
    """Create a signal of ``width`` bits in the requested data mode.

    This is the equivalent of the paper's compile-time macros that switch a
    whole model between ``sc_signal_rv`` and native data types without
    touching the model source (section 4.2).
    """
    if mode is DataMode.RESOLVED:
        return ResolvedSignal(sim, name, width, initial)
    return Signal(sim, name, initial)

"""Ports -- the typed connection points of a module (``sc_in`` / ``sc_out``).

A port must be *bound* to a channel (signal) before simulation.  Every read
and write goes through the port object, which is exactly the function-call
chain the paper's "reduced port reading" optimisation targets (section 4.4):
repeated ``port.read()`` calls inside one process execution cost a chain of
calls each time, so the optimised models read once into a local variable.

To make that effect measurable, ports count their read and write calls, and
:class:`CachingInPort` implements the optimisation as a reusable component
(one underlying read per delta cycle, later reads served from the cache).

Ports forward to the bound channel's own ``read_int``/``read_bit`` and
``write``/``release`` (see :mod:`repro.signals.signal`); each forwards
through ``self._channel or self.channel`` -- the slot when bound, the
property that raises :class:`~repro.kernel.errors.BindingError` when not.
"""

from __future__ import annotations

from typing import Generic, Optional, TypeVar

from ..kernel.errors import BindingError
from ..kernel.events import Event

ValueT = TypeVar("ValueT")


class Port(Generic[ValueT]):
    """Base port: holds the binding to a channel and usage counters."""

    __slots__ = ("name", "_channel", "read_count", "write_count")

    direction = "inout"

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._channel = None
        #: Count of read() calls made through this port.
        self.read_count = 0
        #: Count of write() calls made through this port.
        self.write_count = 0

    # -- binding -------------------------------------------------------------
    def bind(self, channel) -> None:
        """Bind the port to a signal-like channel."""
        if self._channel is not None and self._channel is not channel:
            raise BindingError(f"port {self.name!r} is already bound")
        self._channel = channel

    def __call__(self, channel) -> None:
        """SystemC-style binding syntax: ``module.port(signal)``."""
        self.bind(channel)

    @property
    def bound(self) -> bool:
        """True once the port has a channel."""
        return self._channel is not None

    @property
    def channel(self):
        """The bound channel; raises if unbound."""
        channel = self._channel
        if channel is None:
            raise BindingError(f"port {self.name!r} is not bound")
        return channel

    # -- events ---------------------------------------------------------------
    def default_event(self) -> Event:
        """Value-changed event of the bound channel."""
        return self.channel.default_event()

    def posedge_event(self) -> Event:
        """Positive-edge event of the bound channel."""
        return self.channel.posedge_event()

    def negedge_event(self) -> Event:
        """Negative-edge event of the bound channel."""
        return self.channel.negedge_event()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        target = getattr(self._channel, "name", None)
        return f"{type(self).__name__}({self.name!r} -> {target!r})"


class InPort(Port[ValueT]):
    """Read-only port (``sc_in``)."""

    __slots__ = ()

    direction = "in"

    def read(self) -> ValueT:
        """Read the bound channel (one full call chain per invocation)."""
        self.read_count += 1
        return (self._channel or self.channel).read()

    def read_int(self, default: int = 0):
        """The bound channel's integer read (X/Z reads as ``default``)."""
        self.read_count += 1
        return (self._channel or self.channel).read_int(default)

    def read_bit(self, default: bool = False):
        """The bound channel's bit read (X/Z reads as ``default``)."""
        self.read_count += 1
        return (self._channel or self.channel).read_bit(default)


class OutPort(Port[ValueT]):
    """Write-only port (``sc_out``)."""

    __slots__ = ()

    direction = "out"

    def write(self, value: ValueT) -> None:
        """Write through to the bound channel.

        The port itself is the driver key, so two output ports bound to the
        same ``ResolvedSignal`` resolve against each other exactly like two
        ``sc_out_rv`` ports.
        """
        self.write_count += 1
        (self._channel or self.channel).write(value, self)

    def release(self) -> None:
        """Stop driving the bound channel.

        On a resolved signal this removes this port's driver contribution
        (tri-state, back to ``Z``); on a native signal -- which has no
        notion of multiple drivers -- it simply drives zero.  Bus slaves use
        this so that only the currently responding slave drives the shared
        acknowledge/read-data wires.
        """
        self.write_count += 1
        (self._channel or self.channel).release(self)


class InOutPort(OutPort[ValueT]):
    """Bidirectional port (``sc_inout`` / ``sc_inout_rv``)."""

    __slots__ = ()

    direction = "inout"

    read = InPort.read
    read_int = InPort.read_int
    read_bit = InPort.read_bit


class CachingInPort(InPort[ValueT]):
    """An input port implementing the section 4.4 optimisation.

    The first ``read()`` in a delta cycle performs a real channel read; later
    reads in the same delta return the cached value without touching the
    channel.  ``underlying_reads`` exposes how many real reads happened so
    the benchmark can show the reduction.  Only ``read`` is cached.
    """

    __slots__ = ("underlying_reads", "_cache_valid_at", "_cached_value")

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self.underlying_reads = 0
        self._cache_valid_at: tuple[int, int] | None = None
        self._cached_value: Optional[ValueT] = None

    def read(self) -> ValueT:
        self.read_count += 1
        channel = self.channel
        sim = channel.sim
        stamp = (sim.time_ps, sim.delta_count)
        if self._cache_valid_at != stamp:
            self._cached_value = channel.read()
            self._cache_valid_at = stamp
            self.underlying_reads += 1
        return self._cached_value  # type: ignore[return-value]


def bind_ports(**bindings) -> None:
    """Bind many ports at once: ``bind_ports(clk=(m.clk, clk_sig), ...)``."""
    for __, (port, channel) in bindings.items():
        port.bind(channel)

"""Module base class -- the structural unit of a model (``sc_module``).

A module owns processes and ports, may contain child modules, and carries a
hierarchical name used in diagnostics and VCD traces.  Process registration
mirrors the SystemC macros:

* :meth:`Module.sc_thread`  registers a generator function as a thread.
* :meth:`Module.sc_method`  registers a callable as a method process.

Both accept a ``sensitive`` iterable of events (or objects with a
``default_event()`` method such as signals and ports).
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterable, Optional

from .errors import KernelError
from .events import Event
from .process import MethodProcess, ThreadProcess
from .engine import SimulationEngine


def _as_events(sensitive: Iterable) -> list[Event]:
    """Normalise a sensitivity list into events.

    Accepts events directly, or any object exposing ``default_event()``
    (signals, ports, clocks) or ``posedge_event()`` when given through the
    helper :func:`posedge`.
    """
    events: list[Event] = []
    for item in sensitive:
        if isinstance(item, Event):
            events.append(item)
        elif hasattr(item, "default_event"):
            events.append(item.default_event())
        else:
            raise KernelError(f"cannot be used in a sensitivity list: "
                              f"{item!r}")
    return events


def posedge(signal) -> Event:
    """Return the positive-edge event of a boolean signal or clock."""
    return signal.posedge_event()


def negedge(signal) -> Event:
    """Return the negative-edge event of a boolean signal or clock."""
    return signal.negedge_event()


class Module:
    """Base class for every hardware model component.

    Parameters
    ----------
    sim:
        The simulator this module belongs to.
    name:
        Local instance name.  The full hierarchical name is derived from the
        parent chain (``top.bus.arbiter``).
    parent:
        Optional enclosing module.
    """

    def __init__(self, sim: SimulationEngine, name: str,
                 parent: Optional["Module"] = None) -> None:
        self.sim = sim
        self.basename = name
        self.parent = parent
        self.children: list["Module"] = []
        self.processes: list = []
        if parent is not None:
            parent.children.append(self)

    # -- naming --------------------------------------------------------------
    @property
    def name(self) -> str:
        """Full hierarchical name of this module."""
        if self.parent is None:
            return self.basename
        return f"{self.parent.name}.{self.basename}"

    # -- process registration -------------------------------------------------
    def sc_thread(self, func: Callable, sensitive: Iterable = (),
                  dont_initialize: bool = False,
                  name: Optional[str] = None) -> ThreadProcess:
        """Register ``func`` (usually a generator function) as a thread."""
        process_name = f"{self.name}.{name or func.__name__}"
        process = ThreadProcess(self.sim, process_name, func,
                                _as_events(sensitive), dont_initialize)
        self.processes.append(process)
        self.sim.register_process(process)
        return process

    def sc_method(self, func: Callable, sensitive: Iterable = (),
                  dont_initialize: bool = False,
                  name: Optional[str] = None) -> MethodProcess:
        """Register ``func`` as a run-to-completion method process."""
        process_name = f"{self.name}.{name or func.__name__}"
        process = MethodProcess(self.sim, process_name, func,
                                _as_events(sensitive), dont_initialize)
        self.processes.append(process)
        self.sim.register_process(process)
        return process

    def sc_process(self, func: Callable, sensitive: Iterable = (),
                   use_method: bool = True,
                   dont_initialize: bool = False,
                   name: Optional[str] = None):
        """Register ``func`` as either a method or a thread.

        This is the hook the paper's "Threads vs Methods" experiment
        (section 4.3) uses: the same model code is registered as a thread or
        a method depending on the model configuration.  When a plain
        (non-generator) function is registered as a thread it is wrapped in
        the classic ``while (1) { work(); wait(); }`` loop of Listing 2, so
        the thread and method versions do identical per-cycle work and only
        the scheduling mechanism differs.
        """
        if use_method:
            return self.sc_method(func, sensitive, dont_initialize, name)
        if inspect.isgeneratorfunction(func):
            return self.sc_thread(func, sensitive, dont_initialize, name)

        def _looping_thread():
            while True:
                func()
                yield None

        return self.sc_thread(_looping_thread, sensitive, dont_initialize,
                              name=name or getattr(func, "__name__", "thread"))

    # -- conveniences ----------------------------------------------------------
    def next_trigger(self, spec=None) -> None:
        """Forward to the currently executing method process."""
        self.sim.next_trigger(spec)

    def all_processes(self) -> list:
        """This module's processes plus those of every child, recursively."""
        result = list(self.processes)
        for child in self.children:
            result.extend(child.all_processes())
        return result

    def find_child(self, basename: str) -> Optional["Module"]:
        """Locate a direct child module by its local name."""
        for child in self.children:
            if child.basename == basename:
                return child
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"

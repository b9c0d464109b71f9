"""Discrete-event simulation kernel with SystemC semantics.

Public surface:

* :class:`SimulationEngine` -- the engine interface models are built
  against; :func:`create_engine` instantiates one by name.
* :class:`Simulator` -- the general-purpose (generic) engine.
* :class:`ClockedEngine` -- the single-clock synchronous fast path.
* :class:`Module` -- base class for hardware models.
* :class:`Event`, :class:`EventOrList` -- synchronisation primitives.
* :class:`ThreadProcess`, :class:`MethodProcess` -- process kinds.
* :class:`SimTime`, :class:`TimeUnit` -- time representation.
* :class:`KernelStatistics` -- scheduling-work counters.
"""

from .clocked import ClockedEngine
from .component import (SCOPE_ARCHITECTURAL, SCOPE_BUS_LEVEL, SimComponent,
                        capture_tree, iter_components, restore_tree)
from .engine import (ENGINE_CLOCKED, ENGINE_GENERIC, SimulationEngine,
                     create_engine, engine_kinds)
from .errors import (AddressError, AlignmentError, AssemblerError,
                     BindingError, DecodeError, KernelError, ModelError,
                     MultipleDriverError, ReproError, SimulationFinished,
                     SimulationStopped)
from .events import Event, EventOrList
from .module import Module, negedge, posedge
from .process import MethodProcess, Process, ThreadProcess
from .scheduler import Simulator
from .simtime import SimTime, TimeUnit, ZERO_TIME, to_picoseconds
from .statistics import KernelStatistics

__all__ = [
    "ClockedEngine",
    "ENGINE_CLOCKED",
    "ENGINE_GENERIC",
    "SCOPE_ARCHITECTURAL",
    "SCOPE_BUS_LEVEL",
    "SimComponent",
    "SimulationEngine",
    "capture_tree",
    "create_engine",
    "engine_kinds",
    "iter_components",
    "restore_tree",
    "AddressError",
    "AlignmentError",
    "AssemblerError",
    "BindingError",
    "DecodeError",
    "Event",
    "EventOrList",
    "KernelError",
    "KernelStatistics",
    "MethodProcess",
    "ModelError",
    "Module",
    "MultipleDriverError",
    "Process",
    "ReproError",
    "SimTime",
    "SimulationFinished",
    "SimulationStopped",
    "Simulator",
    "ThreadProcess",
    "TimeUnit",
    "ZERO_TIME",
    "negedge",
    "posedge",
    "to_picoseconds",
]

"""Channels and ports: signals, resolved signals, clocks, FIFOs, ports."""

from .clock import Clock, ManualClock
from .fifo import Fifo
from .ports import (CachingInPort, InOutPort, InPort, OutPort, Port,
                    bind_ports)
from .signal import (DataMode, ResolvedSignal, Signal, SignalBase,
                     UnresolvedSignal, make_signal)

__all__ = [
    "CachingInPort",
    "Clock",
    "DataMode",
    "Fifo",
    "InOutPort",
    "InPort",
    "ManualClock",
    "OutPort",
    "Port",
    "ResolvedSignal",
    "Signal",
    "SignalBase",
    "UnresolvedSignal",
    "bind_ports",
    "make_signal",
]

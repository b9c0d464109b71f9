"""Peripheral models of the MicroBlaze VanillaNet platform."""

from .dispatcher import MemoryDispatcher
from .ethernet import EthernetMacProxy
from .gpio import Gpio
from .intc import InterruptController
from .memory import MemoryMap, MemoryStorage
from .memory_slaves import (FlashController, MemorySlave, SdramController,
                            SramController)
from .timer import OpbTimer
from .uart import ConsoleSink, UartLite

__all__ = [
    "ConsoleSink",
    "EthernetMacProxy",
    "FlashController",
    "Gpio",
    "InterruptController",
    "MemoryDispatcher",
    "MemoryMap",
    "MemorySlave",
    "MemoryStorage",
    "OpbTimer",
    "SdramController",
    "SramController",
    "UartLite",
]

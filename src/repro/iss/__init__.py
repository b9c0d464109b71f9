"""MicroBlaze ISS: functional core, statistics, interception, SystemC wrapper."""

from .core import MicroBlazeCore
from .functional import FunctionalMicroBlaze
from .interception import (InterceptionResult, InvalidatingDirectMemory,
                           KernelFunctionInterceptor, memcpy_handler,
                           memset_handler)
from .statistics import ExecutionStatistics
from .wrapper import (CPU_CYCLE, CPU_QUANTUM, INTERRUPT_ENTRY_CYCLES,
                      MicroBlazeWrapper, cpu_levels)

__all__ = [
    "CPU_CYCLE",
    "CPU_QUANTUM",
    "ExecutionStatistics",
    "FunctionalMicroBlaze",
    "INTERRUPT_ENTRY_CYCLES",
    "InterceptionResult",
    "InvalidatingDirectMemory",
    "KernelFunctionInterceptor",
    "MicroBlazeCore",
    "MicroBlazeWrapper",
    "cpu_levels",
    "memcpy_handler",
    "memset_handler",
]

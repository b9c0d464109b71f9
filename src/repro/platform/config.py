"""Model configuration: every modelling-style knob of the paper's Figure 2.

A :class:`ModelConfig` value describes one way of building the VanillaNet
SystemC-style model.  :class:`VariantName` enumerates the named
configurations of Figure 2 (plus the RTL HDL baseline, which is built by
:mod:`repro.rtl` rather than from a ``ModelConfig``), and
:func:`variant_config` returns the configuration for each bar, with each
optimisation stacked on top of the previous ones exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from ..bus.transport import BUS_SIGNAL, bus_levels
from ..iss.wrapper import CPU_CYCLE, CPU_QUANTUM, cpu_levels
from ..kernel.engine import ENGINE_GENERIC, engine_kinds
from ..kernel.simtime import SimTime
from ..signals import DataMode


class VariantName(Enum):
    """The named configurations of Figure 2, in presentation order."""

    RTL_HDL = "rtl_hdl"
    INITIAL_TRACE = "initial_trace"
    INITIAL = "initial"
    NATIVE_TYPES = "native_types"
    THREADS_TO_METHODS = "threads_to_methods"
    REDUCED_PORT_READING = "reduced_port_reading"
    REDUCED_SCHEDULING = "reduced_scheduling"
    SUPPRESS_INSTRUCTION_MEMORY = "suppress_instruction_memory"
    SUPPRESS_MAIN_MEMORY = "suppress_main_memory"
    REDUCED_SCHEDULING_2 = "reduced_scheduling_2"
    KERNEL_FUNCTION_CAPTURE = "kernel_function_capture"

    @property
    def is_cycle_accurate(self) -> bool:
        """True for the pin/cycle-accurate bars (sections 3 and 4)."""
        return self in _CYCLE_ACCURATE_VARIANTS

    @property
    def figure2_label(self) -> str:
        """The label used on the paper's Figure 2 x-axis."""
        return _FIGURE2_LABELS[self]


_CYCLE_ACCURATE_VARIANTS = frozenset({
    VariantName.RTL_HDL,
    VariantName.INITIAL_TRACE,
    VariantName.INITIAL,
    VariantName.NATIVE_TYPES,
    VariantName.THREADS_TO_METHODS,
    VariantName.REDUCED_PORT_READING,
    VariantName.REDUCED_SCHEDULING,
})

_FIGURE2_LABELS = {
    VariantName.RTL_HDL: "RTL HDL w/o trace",
    VariantName.INITIAL_TRACE: "Initial model /w trace",
    VariantName.INITIAL: "Initial model",
    VariantName.NATIVE_TYPES: "Native C datatypes",
    VariantName.THREADS_TO_METHODS: "Thread -> Method",
    VariantName.REDUCED_PORT_READING: "Red. port reading",
    VariantName.REDUCED_SCHEDULING: "Red. scheduling",
    VariantName.SUPPRESS_INSTRUCTION_MEMORY: "Supr. inst mem",
    VariantName.SUPPRESS_MAIN_MEMORY: "Supr. main mem",
    VariantName.REDUCED_SCHEDULING_2: "Red. scheduling 2",
    VariantName.KERNEL_FUNCTION_CAPTURE: "Kernel funct capture",
}

#: Figure 2 reference values from the paper, in kHz (simulated clock cycles
#: per second of host time) and minutes of boot time.  Used by the
#: experiment harness to report paper-versus-measured comparisons.
PAPER_FIGURE2_CPS_KHZ = {
    VariantName.RTL_HDL: 0.167,
    VariantName.INITIAL_TRACE: 32.6,
    VariantName.INITIAL: 61.0,
    VariantName.NATIVE_TYPES: 141.7,
    VariantName.THREADS_TO_METHODS: 144.5,
    VariantName.REDUCED_PORT_READING: 148.1,
    VariantName.REDUCED_SCHEDULING: 152.5,
    VariantName.SUPPRESS_INSTRUCTION_MEMORY: 180.2,
    VariantName.SUPPRESS_MAIN_MEMORY: 244.1,
    VariantName.REDUCED_SCHEDULING_2: 283.6,
    VariantName.KERNEL_FUNCTION_CAPTURE: 282.1,
}

PAPER_FIGURE2_BOOT_MINUTES = {
    VariantName.RTL_HDL: 45 * 24 * 60.0,          # "1 month 15 days"
    VariantName.INITIAL_TRACE: 5 * 60 + 23.0,
    VariantName.INITIAL: 2 * 60 + 52.0,
    VariantName.NATIVE_TYPES: 74.0,
    VariantName.THREADS_TO_METHODS: 72.0,
    VariantName.REDUCED_PORT_READING: 71.0,
    VariantName.REDUCED_SCHEDULING: 69.0,
    VariantName.SUPPRESS_INSTRUCTION_MEMORY: 24 + 33 / 60.0,
    VariantName.SUPPRESS_MAIN_MEMORY: 14 + 17 / 60.0,
    VariantName.REDUCED_SCHEDULING_2: 12 + 4 / 60.0,
    VariantName.KERNEL_FUNCTION_CAPTURE: 5 + 56 / 60.0,
}

#: Effective simulation speed of the final model (section 5.4).
PAPER_EFFECTIVE_CPS_KHZ_CAPTURE = 578.0


@dataclass(frozen=True)
class ModelConfig:
    """Every build-time and run-time knob of the SystemC-style platform."""

    name: str = "custom"
    #: Signal data types: resolved logic vectors or native integers (4.2).
    data_mode: DataMode = DataMode.RESOLVED
    #: VCD tracing of the bus signals (the Figure 2 "/w trace" bar).
    trace_enabled: bool = False
    #: Register the arbiter/timer/interrupt-controller processes as methods
    #: instead of threads (4.3).
    use_methods: bool = False
    #: Read each port once per activation instead of hardware-style repeated
    #: reads (4.4).
    reduced_port_reading: bool = False
    #: Combine the three synchronous single-cycle processes into one (4.5.1).
    combined_processes: bool = False
    #: Serve instruction fetches from the memory dispatcher (5.1).
    suppress_instruction_memory: bool = False
    #: Let the dispatcher own the SDRAM entirely (5.2).
    suppress_main_memory: bool = False
    #: Schedule FLASH/GPIO/Ethernet decoders only when addressed (5.3).
    gate_rare_peripherals: bool = False
    #: Intercept memset/memcpy in the ISS wrapper (5.4).
    kernel_function_capture: bool = False
    #: Multicycle sleep of the UART transmit thread (4.5.2); the paper keeps
    #: this on in every presented model to avoid host-system-call noise.
    uart_tx_sleep_cycles: int = 16
    #: System clock period.
    clock_period: SimTime = SimTime.ns(10)
    #: Simulation engine running the model: ``"generic"`` (the
    #: general-purpose evaluate/update/delta kernel) or ``"clocked"`` (the
    #: synchronous fast path of :mod:`repro.kernel.clocked`).  Orthogonal
    #: to every modelling-style knob above: any variant runs on either
    #: engine with identical architectural results.
    engine: str = ENGINE_GENERIC
    #: Bus abstraction level executing OPB transfers: ``"signal"`` (the
    #: pin/cycle-accurate protocol), ``"transaction"`` (arithmetic
    #: arbitration + latency, TLM style) or ``"functional"`` (no
    #: interconnect model, direct-memory-interface fast path).  Like
    #: ``engine`` this is orthogonal to the modelling-style knobs: every
    #: variant runs on every fabric with identical architectural results
    #: (see :mod:`repro.bus.transport`).
    bus_level: str = BUS_SIGNAL
    #: CPU abstraction level of the ISS wrapper: ``"cycle"`` (per-cycle
    #: execute thread) or ``"quantum"`` (temporally-decoupled fast path:
    #: decoded-instruction cache + time-quantum execution, see
    #: :mod:`repro.iss.wrapper`).  A third orthogonal seam beside
    #: ``engine`` and ``bus_level``: any variant runs at either level with
    #: identical architectural results.
    cpu_level: str = CPU_CYCLE
    #: Instructions per time quantum when ``cpu_level == "quantum"``.
    quantum_instructions: int = 1024

    @property
    def is_cycle_accurate(self) -> bool:
        """True when no accuracy-compromising optimisation is active."""
        return not (self.suppress_instruction_memory
                    or self.suppress_main_memory
                    or self.gate_rare_peripherals
                    or self.kernel_function_capture)

    def with_updates(self, **changes) -> "ModelConfig":
        """A copy of this configuration with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable description of the active options."""
        options = []
        options.append("resolved signals"
                       if self.data_mode is DataMode.RESOLVED
                       else "native data types")
        if self.trace_enabled:
            options.append("VCD trace")
        if self.use_methods:
            options.append("methods")
        if self.reduced_port_reading:
            options.append("reduced port reading")
        if self.combined_processes:
            options.append("combined processes")
        if self.suppress_instruction_memory:
            options.append("instruction fetch via dispatcher")
        if self.suppress_main_memory:
            options.append("main memory via dispatcher")
        if self.gate_rare_peripherals:
            options.append("gated rare peripherals")
        if self.kernel_function_capture:
            options.append("memset/memcpy capture")
        if self.engine != ENGINE_GENERIC:
            options.append(f"{self.engine} engine")
        if self.bus_level != BUS_SIGNAL:
            options.append(f"{self.bus_level} bus")
        if self.cpu_level != CPU_CYCLE:
            detail = f"{self.cpu_level} cpu"
            if self.cpu_level == CPU_QUANTUM:
                detail += f" ({self.quantum_instructions} insn quantum)"
            options.append(detail)
        return f"{self.name}: " + ", ".join(options)


def variant_config(variant: VariantName,
                   engine: str = ENGINE_GENERIC,
                   bus_level: str = BUS_SIGNAL,
                   cpu_level: str = CPU_CYCLE) -> ModelConfig:
    """The :class:`ModelConfig` for a Figure 2 bar.

    Optimisations accumulate from left to right across the figure, exactly
    as in the paper (each bar adds one technique to the previous bar).
    ``engine`` selects the simulation engine, ``bus_level`` the
    interconnect fabric and ``cpu_level`` the ISS wrapper's execution
    style the variant runs on, without changing the model itself.
    ``VariantName.RTL_HDL`` has no ``ModelConfig``; it is built by
    :mod:`repro.rtl` (which takes the same ``engine`` selector directly).
    """
    if variant is VariantName.RTL_HDL:
        raise ValueError("the RTL HDL baseline is built by repro.rtl, "
                         "not from a ModelConfig")
    if engine not in engine_kinds():
        raise ValueError(f"unknown engine {engine!r}; "
                         f"expected one of {sorted(engine_kinds())}")
    if bus_level not in bus_levels():
        raise ValueError(f"unknown bus level {bus_level!r}; "
                         f"expected one of {sorted(bus_levels())}")
    if cpu_level not in cpu_levels():
        raise ValueError(f"unknown cpu level {cpu_level!r}; "
                         f"expected one of {sorted(cpu_levels())}")
    config = ModelConfig(name=variant.value, engine=engine,
                         bus_level=bus_level, cpu_level=cpu_level)
    if variant is VariantName.INITIAL_TRACE:
        return config.with_updates(trace_enabled=True)
    if variant is VariantName.INITIAL:
        return config
    config = config.with_updates(data_mode=DataMode.NATIVE)
    if variant is VariantName.NATIVE_TYPES:
        return config
    config = config.with_updates(use_methods=True)
    if variant is VariantName.THREADS_TO_METHODS:
        return config
    config = config.with_updates(reduced_port_reading=True)
    if variant is VariantName.REDUCED_PORT_READING:
        return config
    config = config.with_updates(combined_processes=True)
    if variant is VariantName.REDUCED_SCHEDULING:
        return config
    config = config.with_updates(suppress_instruction_memory=True)
    if variant is VariantName.SUPPRESS_INSTRUCTION_MEMORY:
        return config
    config = config.with_updates(suppress_main_memory=True)
    if variant is VariantName.SUPPRESS_MAIN_MEMORY:
        return config
    config = config.with_updates(gate_rare_peripherals=True)
    if variant is VariantName.REDUCED_SCHEDULING_2:
        return config
    config = config.with_updates(kernel_function_capture=True)
    return config


def all_systemc_variants() -> list[VariantName]:
    """Every Figure 2 variant that is a SystemC-style model (bars 1-10)."""
    return [variant for variant in VariantName
            if variant is not VariantName.RTL_HDL]

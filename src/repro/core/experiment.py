"""Experiment runner: measures simulation speed of every model variant.

This is the harness behind the Figure 2 reproduction.  For each SystemC-
style variant it builds the platform in that configuration, loads the
synthetic boot workload, and measures wall-clock time over several
execution windows ("10 different phases over 5 executions of the Linux
boot sequence" in the paper; the window count and workload scale are
configurable so the same harness drives both quick tests and the full
benchmark run).  The RTL HDL baseline is measured over the register-level
model running the "simpler program", exactly as the paper did.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..bus.transport import BUS_SIGNAL
from ..iss.wrapper import CPU_CYCLE
from ..kernel.engine import ENGINE_GENERIC
from ..platform import (VanillaNetPlatform, VariantName,
                        PAPER_FIGURE2_BOOT_MINUTES, PAPER_FIGURE2_CPS_KHZ,
                        variant_config)
from ..rtl import RtlVanillaNetSystem
from ..software import (BootParams, build_boot_program,
                        memory_exercise_program, ping_echo_programs)
from .metrics import AggregatedSpeed, SpeedMeasurement


@dataclass
class ExperimentOptions:
    """Knobs controlling how much work each measurement does."""

    #: Instruction budget of each measured window (SystemC variants).
    instructions_per_phase: int = 300
    #: Number of measured windows per variant.
    phases: int = 3
    #: Cycle budget of each measured window (RTL baseline).
    rtl_cycles_per_phase: int = 1_500
    #: Scale factor applied to the default boot workload sizes.
    boot_scale: float = 1.0
    #: Simulation-cycle chunk used when driving the kernel.
    chunk_cycles: int = 250
    #: Hard cycle cap per window, as a safety net.
    max_cycles_per_phase: int = 400_000
    #: Instructions executed before the first measured window, so every
    #: window samples steady-state boot activity.  When a measurement is
    #: warm-started from a snapshot, the snapshot was taken at exactly
    #: this point; the serial path runs the warm-up itself, and either
    #: way the measured windows see identical platform state.
    warmup_instructions: int = 0

    def boot_params(self) -> BootParams:
        """The boot-workload parameters for this option set."""
        return BootParams().scaled(self.boot_scale)


@dataclass
class VariantResult:
    """Measured behaviour of one Figure 2 variant on one engine."""

    variant: VariantName
    speed: AggregatedSpeed
    process_count: int = 0
    console_excerpt: str = ""
    memset_memcpy_fraction: float = 0.0
    interception_hits: int = 0
    notes: list[str] = field(default_factory=list)
    #: Simulation engine the variant ran on (``"generic"``/``"clocked"``).
    engine: str = ENGINE_GENERIC
    #: Bus abstraction level the variant ran on
    #: (``"signal"``/``"transaction"``/``"functional"``).
    bus_level: str = BUS_SIGNAL
    #: CPU abstraction level the variant ran on (``"cycle"``/``"quantum"``).
    cpu_level: str = CPU_CYCLE
    #: Kernel work counters accumulated over the whole measured run.
    kernel_counters: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Figure 2 axis label."""
        return self.variant.figure2_label

    @property
    def cps_khz(self) -> float:
        """Measured simulation speed in kHz."""
        return self.speed.mean_cps / 1e3

    @property
    def effective_cps_khz(self) -> float:
        """Measured effective simulation speed in kHz."""
        return self.speed.mean_effective_cps / 1e3

    @property
    def cpi(self) -> float:
        """Measured cycles per instruction."""
        return self.speed.mean_cpi

    @property
    def paper_cps_khz(self) -> float:
        """The paper's reported CPS for this variant."""
        return PAPER_FIGURE2_CPS_KHZ[self.variant]

    @property
    def paper_boot_minutes(self) -> float:
        """The paper's reported boot time in minutes."""
        return PAPER_FIGURE2_BOOT_MINUTES[self.variant]

    @property
    def projected_boot_minutes(self) -> float:
        """Projected full-boot time, in minutes, at the measured speed."""
        return self.speed.projected_boot_seconds() / 60.0


@dataclass
class ClusterResult:
    """Measured behaviour of one multi-node cluster configuration."""

    node_count: int
    engine: str
    bus_level: str
    cpu_level: str
    finished: bool
    cycles: int
    wall_seconds: float
    consoles: list[str] = field(default_factory=list)
    frames_switched: int = 0
    frames_delivered: int = 0

    @property
    def cps_khz(self) -> float:
        """Simulated cluster cycles per wall second, in kHz."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.cycles / self.wall_seconds / 1e3

    @property
    def key(self) -> str:
        return f"cluster{self.node_count}/{self.engine}" \
               f"/{self.bus_level}/{self.cpu_level}"


def format_cluster_table(results: Sequence["ClusterResult"]) -> str:
    """The multi-node rows of the extended report: one line per seam combo."""
    lines = [
        f"{'configuration':<42} {'kcps':>8} {'cycles':>9} "
        f"{'frames':>7} {'done':>5}",
        "-" * 75,
    ]
    for result in results:
        lines.append(
            f"{result.key:<42} {result.cps_khz:>8.1f} {result.cycles:>9} "
            f"{result.frames_delivered:>7} "
            f"{'yes' if result.finished else 'NO':>5}")
    return "\n".join(lines)


class Figure2Experiment:
    """Builds, runs and measures every model variant of Figure 2."""

    def __init__(self, options: Optional[ExperimentOptions] = None) -> None:
        self.options = options if options is not None else ExperimentOptions()

    # -- individual variants -------------------------------------------------
    def measure_variant(self, variant: VariantName,
                        engine: str = ENGINE_GENERIC,
                        bus_level: str = BUS_SIGNAL,
                        cpu_level: str = CPU_CYCLE) -> VariantResult:
        """Measure one variant on one engine, bus level and CPU level.

        The RTL HDL baseline has no OPB transport seam and no ISS wrapper;
        it is always measured at (and reported as) signal/cycle level.
        """
        if variant is VariantName.RTL_HDL:
            return self._measure_rtl(engine)
        return self._measure_systemc(variant, engine, bus_level, cpu_level)

    def _measure_systemc(self, variant: VariantName,
                         engine: str = ENGINE_GENERIC,
                         bus_level: str = BUS_SIGNAL,
                         cpu_level: str = CPU_CYCLE,
                         snapshot=None) -> VariantResult:
        options = self.options
        platform = VanillaNetPlatform(variant_config(variant, engine=engine,
                                                     bus_level=bus_level,
                                                     cpu_level=cpu_level))
        program = build_boot_program(options.boot_params())
        platform.load_program(program)
        # Warm start: either restore the snapshot taken at the warm-up
        # point, or run the warm-up here.  Kernel counters are reported
        # as the delta over the measured windows so both paths agree.
        kernel_baseline = None
        if snapshot is not None:
            platform.restore_snapshot(snapshot)
            kernel_baseline = platform.sim.stats.as_dict()
        elif options.warmup_instructions > 0:
            platform.run_instructions(options.warmup_instructions,
                                      max_cycles=options.max_cycles_per_phase,
                                      chunk_cycles=options.chunk_cycles)
            kernel_baseline = platform.sim.stats.as_dict()
        speed = AggregatedSpeed(variant.value)
        stats = platform.statistics
        for phase_index in range(options.phases):
            if platform.microblaze.finished:
                break
            retired_before = stats.instructions_retired
            effective_before = stats.effective_instructions
            cycles_before = platform.cycle_count
            started = time.perf_counter()
            platform.run_instructions(
                options.instructions_per_phase,
                max_cycles=options.max_cycles_per_phase,
                chunk_cycles=options.chunk_cycles)
            elapsed = time.perf_counter() - started
            speed.add(SpeedMeasurement(
                label=f"{variant.value}.phase{phase_index}",
                simulated_cycles=platform.cycle_count - cycles_before,
                wall_seconds=elapsed,
                instructions_retired=(stats.instructions_retired
                                      - retired_before),
                instructions_effective=(stats.effective_instructions
                                        - effective_before),
                phase=f"phase{phase_index}"))
        fraction = stats.function_fraction("memset", "memcpy")
        kernel_counters = platform.sim.stats.as_dict()
        if kernel_baseline is not None:
            kernel_counters = {
                name: value - kernel_baseline.get(name, 0)
                for name, value in kernel_counters.items()}
        return VariantResult(
            variant=variant,
            speed=speed,
            process_count=platform.process_count(),
            console_excerpt=platform.console_output[:120],
            memset_memcpy_fraction=fraction,
            interception_hits=stats.interception_hits,
            engine=engine,
            bus_level=bus_level,
            cpu_level=cpu_level,
            kernel_counters=kernel_counters,
        )

    def _measure_rtl(self, engine: str = ENGINE_GENERIC) -> VariantResult:
        options = self.options
        system = RtlVanillaNetSystem(engine=engine)
        system.load_program(memory_exercise_program(region_bytes=64))
        speed = AggregatedSpeed(VariantName.RTL_HDL.value)
        stats = system.core.stats
        for phase_index in range(options.phases):
            retired_before = stats.instructions_retired
            cycles_before = system.cycle_count
            started = time.perf_counter()
            system.run_cycles(options.rtl_cycles_per_phase)
            elapsed = time.perf_counter() - started
            speed.add(SpeedMeasurement(
                label=f"rtl.phase{phase_index}",
                simulated_cycles=system.cycle_count - cycles_before,
                wall_seconds=elapsed,
                instructions_retired=(stats.instructions_retired
                                      - retired_before),
                instructions_effective=(stats.instructions_retired
                                        - retired_before),
                phase=f"phase{phase_index}"))
        return VariantResult(
            variant=VariantName.RTL_HDL,
            speed=speed,
            process_count=system.process_count(),
            console_excerpt=system.console_output[:120],
            notes=["RTL baseline runs the 'simpler program', as in the "
                   "paper (a full boot is infeasible at RTL speed)"],
            engine=engine,
            kernel_counters=system.sim.stats.as_dict(),
        )

    # -- the full figure -----------------------------------------------------------
    def run(self, variants: Optional[Sequence[VariantName]] = None,
            engine: str = ENGINE_GENERIC) -> list[VariantResult]:
        """Measure all requested variants (default: every Figure 2 bar)."""
        if variants is None:
            variants = list(VariantName)
        return [self.measure_variant(variant, engine=engine)
                for variant in variants]

    # -- multi-node clusters -------------------------------------------------
    def measure_cluster(self, nodes: int = 2,
                        engine: str = ENGINE_GENERIC,
                        bus_level: str = BUS_SIGNAL,
                        cpu_level: str = CPU_CYCLE,
                        variant: VariantName = VariantName.NATIVE_TYPES,
                        ping_count: int = 3,
                        max_cycles: int = 200_000,
                        payload=None) -> "ClusterResult":
        """Run the ping/echo workload on an N-node cluster and time it.

        Node 0 pings, node 1 echoes; further nodes idle on the switch and
        only receive broadcast traffic.  The workload is the standing
        multi-node scenario (ROADMAP "scenario diversity"), so its speed
        is reported alongside the single-node Figure 2 rows.  ``payload``
        overrides the pinged frame body (a tuple of words); larger
        payloads shift the round mix towards frame staging/draining,
        which is what the traffic-at-scale benchmarks measure.
        """
        from ..platform import VanillaNetCluster, cluster_config
        from ..software import arithmetic_program

        cluster = VanillaNetCluster(cluster_config(
            nodes, variant=variant, engine=engine, bus_level=bus_level,
            cpu_level=cpu_level))
        if payload is None:
            ping, echo = ping_echo_programs(count=ping_count)
        else:
            ping, echo = ping_echo_programs(payload=tuple(payload),
                                            count=ping_count)
        idle = [arithmetic_program() for _ in range(nodes - 2)]
        cluster.load_programs([ping, echo, *idle])
        started = time.perf_counter()
        finished = cluster.run_until_halt(
            max_cycles=max_cycles, chunk_cycles=self.options.chunk_cycles)
        elapsed = time.perf_counter() - started
        return ClusterResult(
            node_count=nodes,
            engine=engine,
            bus_level=bus_level,
            cpu_level=cpu_level,
            finished=finished,
            cycles=cluster.cycle_count,
            wall_seconds=elapsed,
            consoles=cluster.console_outputs(),
            frames_switched=cluster.link.frames_switched,
            frames_delivered=cluster.link.frames_delivered,
        )

    def run_cluster_comparison(
            self, nodes: int = 2,
            engines: Optional[Sequence[str]] = None,
            bus_levels: Optional[Sequence[str]] = None,
            cpu_levels: Optional[Sequence[str]] = None,
            ping_count: int = 3) -> list["ClusterResult"]:
        """Measure the cluster workload across the execution-seam matrix."""
        from ..bus.transport import bus_levels as _all_bus_levels
        from ..iss.wrapper import cpu_levels as _all_cpu_levels
        from ..kernel.engine import engine_kinds as _all_engines

        engines = list(engines) if engines else list(_all_engines())
        bus_levels = list(bus_levels) if bus_levels \
            else list(_all_bus_levels())
        cpu_levels = list(cpu_levels) if cpu_levels \
            else list(_all_cpu_levels())
        return [self.measure_cluster(nodes, engine=engine,
                                     bus_level=bus_level,
                                     cpu_level=cpu_level,
                                     ping_count=ping_count)
                for engine in engines
                for bus_level in bus_levels
                for cpu_level in cpu_levels]

"""Experiment runner: measures simulation speed of every model variant.

This is the harness behind the Figure 2 reproduction.  For each SystemC-
style variant it builds the platform in that configuration, loads the
synthetic boot workload, and times execution windows with
:func:`~repro.core.metrics.measure` ("10 different phases over 5 executions
of the Linux boot sequence" in the paper; the round count and workload
scale are configurable so the same harness drives both quick tests and the
full benchmark run).  :meth:`Figure2Experiment.run` interleaves the windows
of every bar it measures, so each ratio between two bars pairs windows
that ran next to each other.  The RTL HDL baseline is measured over the
register-level model running the "simpler program", exactly as the paper
did.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..bus.transport import BUS_SIGNAL
from ..iss.wrapper import CPU_CYCLE
from ..kernel.engine import ENGINE_GENERIC
from ..platform import (VanillaNetCluster, VanillaNetPlatform, VariantName,
                        PAPER_FIGURE2_BOOT_MINUTES, PAPER_FIGURE2_CPS_KHZ,
                        cluster_config, variant_config)
from ..rtl import RtlVanillaNetSystem
from ..software import (BootParams, arithmetic_program, build_boot_program,
                        memory_exercise_program, ping_echo_programs)
from .metrics import REFERENCE_BOOT_INSTRUCTIONS, SpeedMeasurement, measure


@dataclass
class ExperimentOptions:
    """Knobs controlling how much work each measurement does."""

    #: Instruction budget of each measured window (SystemC variants).
    instructions_per_phase: int = 300
    #: Timed rounds per measurement; every window runs once per round,
    #: after one untimed warm-up round.
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
    #: CPS of each timed round.
    speed: SpeedMeasurement
    #: Simulated cycles, retired and effective instructions over the
    #: measured windows, warm-up round included; exact for a given input.
    cycles: int = 0
    instructions_retired: int = 0
    instructions_effective: int = 0
    process_count: int = 0
    console_excerpt: str = ""
    #: Simulation engine the variant ran on (``"generic"``/``"clocked"``).
    engine: str = ENGINE_GENERIC
    #: Bus abstraction level the variant ran on
    #: (``"signal"``/``"transaction"``/``"functional"``).
    bus_level: str = BUS_SIGNAL
    #: CPU abstraction level the variant ran on (``"cycle"``/``"quantum"``).
    cpu_level: str = CPU_CYCLE
    #: Kernel work counters accumulated over the measured windows.
    kernel_counters: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Figure 2 axis label."""
        return self.variant.figure2_label

    @property
    def cps_khz(self) -> float:
        """Measured simulation speed in kHz (median over the rounds)."""
        return self.speed.median / 1e3

    @property
    def effective_scale(self) -> float:
        """Effective over retired instructions (1.0 without capture).

        When kernel-function capture replaces instructions with zero-time
        native execution, the retired-instruction CPS understates progress;
        the paper reports the resulting "effective simulation speed"
        (578 kHz for the final model).
        """
        if self.instructions_retired == 0 \
                or self.instructions_effective <= self.instructions_retired:
            return 1.0
        return self.instructions_effective / self.instructions_retired

    @property
    def effective_cps_khz(self) -> float:
        """Measured effective simulation speed in kHz."""
        return self.cps_khz * self.effective_scale

    @property
    def cpi(self) -> float:
        """Measured cycles per instruction."""
        if self.instructions_retired == 0:
            return 0.0
        return self.cycles / self.instructions_retired

    @property
    def paper_cps_khz(self) -> float:
        """The paper's reported CPS for this variant."""
        return PAPER_FIGURE2_CPS_KHZ[self.variant]

    @property
    def paper_boot_minutes(self) -> float:
        """The paper's reported boot time in minutes."""
        return PAPER_FIGURE2_BOOT_MINUTES[self.variant]

    @property
    def projected_boot_cycles(self) -> float:
        """Simulated cycles a full boot would take for this variant.

        The measured CPI turns the reference instruction count into cycles;
        with kernel-function capture only the retired share of the
        instructions costs cycles, reproducing the paper's halved boot time
        for bar 10.
        """
        cpi = self.cpi if self.cpi > 0 else 1.0
        return REFERENCE_BOOT_INSTRUCTIONS / self.effective_scale * cpi

    @property
    def projected_boot_minutes(self) -> float:
        """Projected full-boot time, in minutes, at the measured speed."""
        if self.speed.median <= 0:
            return float("inf")
        return self.projected_boot_cycles / self.speed.median / 60.0


@dataclass
class ClusterResult:
    """Measured behaviour of one multi-node cluster configuration."""

    node_count: int
    engine: str
    bus_level: str
    cpu_level: str
    finished: bool
    cycles: int
    #: Cluster CPS of each timed round, one run from reset to halt each.
    speed: SpeedMeasurement
    consoles: list[str] = field(default_factory=list)
    frames_switched: int = 0
    frames_delivered: int = 0

    @property
    def cps_khz(self) -> float:
        """Simulated cluster cycles per CPU second, in kHz (median)."""
        return self.speed.median / 1e3

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


def build_ping_cluster(nodes: int = 2, engine: str = ENGINE_GENERIC,
                       bus_level: str = BUS_SIGNAL,
                       cpu_level: str = CPU_CYCLE,
                       variant: VariantName = VariantName.NATIVE_TYPES,
                       ping_count: int = 3,
                       payload: Optional[Sequence[int]] = None
                       ) -> VanillaNetCluster:
    """An N-node cluster with the ping/echo workload loaded.

    Node 0 pings, node 1 echoes; further nodes idle on the switch and only
    receive broadcast traffic.  ``payload`` overrides the pinged frame
    body (a tuple of words); larger payloads shift the round mix towards
    frame staging/draining, which is what the traffic-at-scale gate
    measures.
    """
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
    return cluster


@dataclass(eq=False)
class _Bar:
    """One configuration under measurement: its model and its window."""

    variant: VariantName
    engine: str
    bus_level: str
    cpu_level: str
    #: The platform, or the RTL system.
    model: object
    stats: object
    #: Advances ``model`` by one window; returns the cycles it advanced.
    window: Callable[[], int]


class Figure2Experiment:
    """Builds, runs and measures every model variant of Figure 2."""

    def __init__(self, options: Optional[ExperimentOptions] = None) -> None:
        self.options = options if options is not None else ExperimentOptions()

    # -- single-node variants ------------------------------------------------
    def measure_variant(self, variant: VariantName,
                        engine: str = ENGINE_GENERIC,
                        bus_level: str = BUS_SIGNAL,
                        cpu_level: str = CPU_CYCLE,
                        snapshot=None) -> VariantResult:
        """Measure one variant on one engine, bus level and CPU level.

        ``snapshot``, taken at the warm-up point, replaces running the
        warm-up.  The RTL HDL baseline has no OPB transport seam and no
        ISS wrapper; it is always measured at (and reported as)
        signal/cycle level.
        """
        return self._measure([self._bar(variant, engine, bus_level,
                                        cpu_level, snapshot)])[0]

    def run(self, variants: Optional[Sequence[VariantName]] = None,
            engine: str = ENGINE_GENERIC) -> list[VariantResult]:
        """Measure the requested variants (default: every Figure 2 bar)
        in one interleaved measurement."""
        if variants is None:
            variants = list(VariantName)
        return self._measure([self._bar(variant, engine)
                              for variant in variants])

    def _bar(self, variant: VariantName, engine: str = ENGINE_GENERIC,
             bus_level: str = BUS_SIGNAL, cpu_level: str = CPU_CYCLE,
             snapshot=None) -> _Bar:
        """Build one configuration, warmed up, with its window."""
        options = self.options
        if variant is VariantName.RTL_HDL:
            system = RtlVanillaNetSystem(engine=engine)
            system.load_program(memory_exercise_program(region_bytes=64))

            def rtl_window() -> int:
                before = system.cycle_count
                system.run_cycles(options.rtl_cycles_per_phase)
                return system.cycle_count - before

            return _Bar(variant, engine, BUS_SIGNAL, CPU_CYCLE, system,
                        system.core.stats, rtl_window)
        platform = VanillaNetPlatform(variant_config(variant, engine=engine,
                                                     bus_level=bus_level,
                                                     cpu_level=cpu_level))
        platform.load_program(build_boot_program(options.boot_params()))
        if snapshot is not None:
            platform.restore_snapshot(snapshot)
        elif options.warmup_instructions > 0:
            platform.run_instructions(options.warmup_instructions,
                                      max_cycles=options.max_cycles_per_phase,
                                      chunk_cycles=options.chunk_cycles)
        window = functools.partial(platform.run_instructions,
                                   options.instructions_per_phase,
                                   max_cycles=options.max_cycles_per_phase,
                                   chunk_cycles=options.chunk_cycles)
        return _Bar(variant, engine, bus_level, cpu_level, platform,
                    platform.statistics, window)

    def _measure(self, bars: list[_Bar]) -> list[VariantResult]:
        """Time every bar's windows together; counters are deltas over
        the measured windows."""
        before = {bar: (bar.model.cycle_count,
                        bar.stats.instructions_retired,
                        bar.stats.effective_instructions,
                        bar.model.sim.stats.as_dict()) for bar in bars}
        speeds = measure({bar: bar.window for bar in bars},
                         self.options.phases)
        results = []
        for bar in bars:
            cycles, retired, effective, kernel = before[bar]
            results.append(VariantResult(
                variant=bar.variant,
                speed=speeds[bar],
                cycles=bar.model.cycle_count - cycles,
                instructions_retired=bar.stats.instructions_retired - retired,
                instructions_effective=(bar.stats.effective_instructions
                                        - effective),
                process_count=bar.model.process_count(),
                console_excerpt=bar.model.console_output[:120],
                engine=bar.engine,
                bus_level=bar.bus_level,
                cpu_level=bar.cpu_level,
                kernel_counters={
                    name: value - kernel.get(name, 0)
                    for name, value in bar.model.sim.stats.as_dict().items()},
            ))
        return results

    # -- multi-node clusters -------------------------------------------------
    def measure_clusters(self, cells: Sequence[tuple[str, str, str]],
                         nodes: int = 2,
                         variant: VariantName = VariantName.NATIVE_TYPES,
                         ping_count: int = 3,
                         max_cycles: int = 200_000,
                         payload: Optional[Sequence[int]] = None
                         ) -> list[ClusterResult]:
        """Time the ping/echo workload on each ``(engine, bus_level,
        cpu_level)`` cell, interleaved round by round.

        Each window runs a fresh cluster (:func:`build_ping_cluster`, built
        untimed) from reset to its halt, so at most one cluster is alive
        at a time.  The result reports the last run's outcome; every run of
        a cell simulates the same cycles.
        """
        loaded: dict[tuple, VanillaNetCluster] = {}
        outcomes: dict[tuple, tuple] = {}

        def build(cell) -> None:
            loaded[cell] = build_ping_cluster(nodes, *cell, variant=variant,
                                              ping_count=ping_count,
                                              payload=payload)

        def run(cell) -> int:
            cluster = loaded.pop(cell)
            finished = cluster.run_until_halt(
                max_cycles=max_cycles, chunk_cycles=self.options.chunk_cycles)
            outcomes[cell] = (finished, cluster.cycle_count,
                              cluster.console_outputs(),
                              cluster.link.frames_switched,
                              cluster.link.frames_delivered)
            return cluster.cycle_count

        cells = [tuple(cell) for cell in cells]
        speeds = measure({cell: functools.partial(run, cell)
                          for cell in cells},
                         self.options.phases, setup=build)
        results = []
        for cell in cells:
            finished, cycles, consoles, switched, delivered = outcomes[cell]
            engine, bus_level, cpu_level = cell
            results.append(ClusterResult(
                node_count=nodes, engine=engine, bus_level=bus_level,
                cpu_level=cpu_level, finished=finished, cycles=cycles,
                speed=speeds[cell], consoles=consoles,
                frames_switched=switched, frames_delivered=delivered))
        return results

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
        return self.measure_clusters(
            [(engine, bus_level, cpu_level) for engine in engines
             for bus_level in bus_levels for cpu_level in cpu_levels],
            nodes=nodes, ping_count=ping_count)

"""CPU-abstraction ablation: time-quantum execution versus per-cycle ISS.

The claim under test: swapping only the ISS wrapper's execution style --
per-cycle execute thread versus temporally-decoupled time quanta over the
decoded-instruction cache -- while keeping the model, the workload, the
engine and the bus fabric fixed, multiplies simulation speed by an order
of magnitude on compute-heavy phases, with *identical* architectural
results (the cross-level identity contract of tests/test_cpu_levels.py).

Gate: quantum mode reaches >= 10x the cycle-level CPS on a functional-bus
Figure 2 variant (suppress_main_memory on the clocked engine), measured
over a compute-heavy workload: a long checksum loop whose loads all hit
DMI-backed main memory, so the quantum breaks only at the timer horizon
rather than at I/O accesses.  Measurement interleaves the two levels'
windows in one :func:`repro.core.measure` call, exactly like the engine
and bus ablations, and gates the median of the per-round ratios.  The
workload's warp counters are pinned exactly, with no timing, in
tests/test_warp_counters.py.

``test_cpu_level_comparison_matrix`` renders the seam table from a sweep
over both levels; ``examples/figure2_sweep.py --record`` is what writes
``figure2_cpu_comparison.txt`` and ``BENCH_fig2.json``.
"""

from __future__ import annotations

import functools
import os

from repro.bus import BUS_FUNCTIONAL
from repro.core import (ExperimentOptions, build_report, measure,
                        run_matrix_sweep)
from repro.iss import CPU_CYCLE, CPU_QUANTUM, cpu_levels
from repro.kernel import ENGINE_CLOCKED, ENGINE_GENERIC
from repro.platform import (VanillaNetPlatform, VariantName, variant_config)
from repro.software import BootParams, build_boot_program

#: The >= 10x claim holds with margin on quiet hosts (local measurements
#: on the checksum workload read ~11x on the clocked engine); the local
#: gate sits at the claim and CI runners only guard against outright
#: pessimisation of the fast path.
SPEEDUP_FLOOR = 3.0 if os.environ.get("CI") else 10.0

#: Compute-heavy boot: the checksum loop dominates, every load hits
#: DMI-backed SDRAM, and the timer period is long enough that quanta run
#: hundreds of instructions before the expiry horizon splits them.
COMPUTE_BOOT = BootParams(
    bss_bytes=32, kernel_copy_bytes=48, page_clear_bytes=16,
    page_clear_count=1, rootfs_copy_bytes=16, checksum_words=30_000,
    progress_dots=1, timer_ticks=1, timer_period_cycles=100_000,
    device_probe_rounds=1)

#: The functional-bus variant carrying the gate: main memory behind the
#: dispatcher, so both levels route data identically (and cheaply).
GATE_VARIANT = VariantName.SUPPRESS_MAIN_MEMORY

WINDOW_INSTRUCTIONS = 40_000
WINDOW_ROUNDS = 3
WARMUP_INSTRUCTIONS = 30

#: Windows of the sweep behind the comparison table: one short window
#: per cell, enough to render every row.
TABLE_OPTIONS = ExperimentOptions(instructions_per_phase=100, phases=1,
                                  boot_scale=0.4, chunk_cycles=200)

TABLE_VARIANTS = [
    VariantName.NATIVE_TYPES,
    VariantName.SUPPRESS_MAIN_MEMORY,
    VariantName.REDUCED_SCHEDULING_2,
    VariantName.KERNEL_FUNCTION_CAPTURE,
]


def build_compute_platform(cpu_level: str,
                           engine: str = ENGINE_CLOCKED
                           ) -> VanillaNetPlatform:
    platform = VanillaNetPlatform(variant_config(
        GATE_VARIANT, engine=engine, bus_level=BUS_FUNCTIONAL,
        cpu_level=cpu_level))
    platform.load_program(build_boot_program(COMPUTE_BOOT))
    platform.run_instructions(WARMUP_INSTRUCTIONS, chunk_cycles=2_000)
    return platform


def measure_levels(engine: str):
    """Quantum-over-cycle per-round CPS ratios on the compute workload,
    after checking that both levels ran the identical instruction stream
    and that the fast path engaged."""
    platforms = {level: build_compute_platform(level, engine=engine)
                 for level in (CPU_CYCLE, CPU_QUANTUM)}
    speeds = measure(
        {level: functools.partial(platform.run_instructions,
                                  WINDOW_INSTRUCTIONS, chunk_cycles=20_000)
         for level, platform in platforms.items()}, WINDOW_ROUNDS)
    cycle = platforms[CPU_CYCLE]
    quantum = platforms[CPU_QUANTUM]
    # Same model, same workload: both levels must have executed the
    # identical instruction stream in identical cycles.
    assert (cycle.statistics.instructions_retired
            == quantum.statistics.instructions_retired)
    assert cycle.cycle_count == quantum.cycle_count
    assert cycle.console_output == quantum.console_output
    # The fast path must actually have engaged.
    assert quantum.statistics.quantum_warps > 0, "quantum mode never warped"
    ratio = speeds[CPU_QUANTUM].over(speeds[CPU_CYCLE])
    print(f"{engine} quantum/cycle: {ratio}")
    return ratio


def test_quantum_cpu_speedup():
    """Quantum-over-cycle CPS ratio on the compute-heavy workload."""
    ratio = measure_levels(ENGINE_CLOCKED)
    assert ratio.median >= SPEEDUP_FLOOR, \
        f"quantum cpu level only {ratio} over cycle level " \
        f"(floor {SPEEDUP_FLOOR}x)"


def test_quantum_identity_on_generic_engine():
    """The same identity + engagement contract on the generic kernel.

    No 10x gate here: without the clocked engine's bulk edge skip the
    generic event queue bounds the win (measured ~4x); the assertion is
    that the fast path engages and stays bit-identical.
    """
    ratio = measure_levels(ENGINE_GENERIC)
    # Regression guard only: the fast path must never be slower than the
    # per-cycle thread it replaces.
    assert ratio.median >= 1.0, \
        f"quantum cpu level slower than cycle level on generic " \
        f"engine ({ratio})"


def test_cpu_level_comparison_matrix():
    """Representative variants on both CPU levels render the cpu table.

    The >= 10x claim is gated by test_quantum_cpu_speedup above; the
    table's exact layout and ratios are pinned from fixed results in
    tests/test_seam_tables.py.
    """
    sweep = run_matrix_sweep(options=TABLE_OPTIONS, variants=TABLE_VARIANTS,
                             engines=[ENGINE_GENERIC],
                             bus_levels=[BUS_FUNCTIONAL], jobs=1)
    sweep.raise_on_errors()
    report = build_report(sweep.results)
    print("\n" + report.format_seam_table("cpu_level") + "\n")
    assert set(report.levels_present("cpu_level")) == set(cpu_levels())
    assert report.best_speedup("cpu_level", CPU_QUANTUM) > 0.0

"""Shared helpers for the benchmark suite.

The speed gates measure *simulation speed* -- how many simulated clock
cycles per second of host CPU time a given model style achieves -- which
is exactly the paper's Figure 2 metric, and they time it only through
:func:`repro.core.measure`.  Absolute numbers depend on the host (and on
this being a Python kernel rather than C++ SystemC); the quantities
compared are the ratios.  Nothing here writes into the checkout:
``examples/figure2_sweep.py --record`` records the committed numbers.

The helpers build platforms with a scaled-down boot workload so a full
benchmark run finishes in minutes.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bus import BUS_SIGNAL
from repro.iss import CPU_CYCLE
from repro.kernel import ENGINE_GENERIC
from repro.platform import VanillaNetPlatform, VariantName, variant_config
from repro.software import BootParams, build_boot_program


def pytest_collection_modifyitems(items):
    """Mark every test under ``benchmarks/`` with the ``bench`` marker.

    Tier-1 CI deselects these (``-m "not bench"``) so the fast correctness
    suite is never blocked behind a measurement run.  The path guard
    matters: conftest hooks receive the whole session's item list, so a
    root invocation collecting ``tests/`` and ``benchmarks/`` together
    must not mark the correctness tests too.
    """
    benchmarks_dir = pathlib.Path(__file__).resolve().parent
    for item in items:
        if benchmarks_dir in pathlib.Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.bench)

#: Boot workload used by the figure-2 benchmarks (small but representative).
BENCH_BOOT_PARAMS = BootParams(
    bss_bytes=192, kernel_copy_bytes=256, page_clear_bytes=128,
    page_clear_count=1, rootfs_copy_bytes=128, checksum_words=32,
    progress_dots=2, timer_ticks=1, timer_period_cycles=500,
    device_probe_rounds=2)

#: Instruction budget of one benchmark window.
INSTRUCTIONS_PER_ROUND = 250


def build_variant_platform(variant: VariantName,
                           engine: str = ENGINE_GENERIC,
                           bus_level: str = BUS_SIGNAL,
                           cpu_level: str = CPU_CYCLE
                           ) -> VanillaNetPlatform:
    """A platform in the given Figure 2 configuration with the boot loaded."""
    platform = VanillaNetPlatform(variant_config(variant, engine=engine,
                                                 bus_level=bus_level,
                                                 cpu_level=cpu_level))
    platform.load_program(build_boot_program(BENCH_BOOT_PARAMS))
    # Warm up: get past the very first instructions so each measured round
    # samples steady-state boot activity.
    platform.run_instructions(30, chunk_cycles=200)
    return platform


def run_instruction_window(platform: VanillaNetPlatform,
                           budget: int = INSTRUCTIONS_PER_ROUND) -> int:
    """Advance the platform by ``budget`` instructions; return cycles used."""
    return platform.run_instructions(budget, chunk_cycles=200)

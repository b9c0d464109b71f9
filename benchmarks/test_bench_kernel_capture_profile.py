"""Kernel-function capture (E13): the section 5.4 claims.

Two measurable claims:

1. roughly half of the boot instructions execute inside memset/memcpy
   (the paper measured 52 %), and
2. intercepting those functions roughly halves the boot time (12 minutes
   to 6 minutes in the paper) because the intercepted instructions run in
   zero simulation time.

The checks run the same boot workload with interception disabled and
enabled on the fastest non-cycle-accurate platform configuration and
compare cycles needed to reach the halt point.
"""

from __future__ import annotations

import pytest

from repro.platform import ModelConfig, VanillaNetPlatform
from repro.signals import DataMode
from repro.software import BootParams, build_boot_program

BOOT_PARAMS = BootParams(
    bss_bytes=160, kernel_copy_bytes=192, page_clear_bytes=96,
    page_clear_count=1, rootfs_copy_bytes=96, checksum_words=24,
    progress_dots=1, timer_ticks=1, timer_period_cycles=400,
    device_probe_rounds=1)


def _boot_platform(capture: bool) -> VanillaNetPlatform:
    config = ModelConfig(
        name=f"capture={capture}", data_mode=DataMode.NATIVE,
        use_methods=True, reduced_port_reading=True,
        combined_processes=True, suppress_instruction_memory=True,
        suppress_main_memory=True, gate_rare_peripherals=True,
        kernel_function_capture=capture)
    platform = VanillaNetPlatform(config)
    platform.load_program(build_boot_program(BOOT_PARAMS))
    return platform


@pytest.mark.parametrize("capture", [False, True],
                         ids=["without_capture", "with_capture"])
def test_boot_with_and_without_capture(capture):
    """A full (scaled) boot, with and without interception."""
    platform = _boot_platform(capture)
    assert platform.run_until_halt(max_cycles=900_000, chunk_cycles=4_000)
    assert "boot complete" in platform.console_output
    stats = platform.statistics
    if capture:
        assert stats.interception_hits >= 4          # memsets + memcpys
        assert stats.instructions_intercepted > 0
    else:
        fraction = stats.function_fraction("memset", "memcpy")
        # Paper: 52 % of boot instructions in memset/memcpy.
        assert 0.30 <= fraction <= 0.75


def test_capture_halves_boot_cycles():
    """Direct comparison of boot cycles with and without interception."""
    without = _boot_platform(False)
    without.run_until_halt(max_cycles=900_000, chunk_cycles=4_000)
    with_capture = _boot_platform(True)
    with_capture.run_until_halt(max_cycles=900_000, chunk_cycles=4_000)
    ratio = without.statistics.cycles / max(1, with_capture.statistics.cycles)
    # Paper: boot time halves (12 m 4 s -> 5 m 56 s).
    assert ratio > 1.3

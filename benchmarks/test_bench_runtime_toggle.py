"""Run-time toggling of non-cycle-accurate optimisations (E15).

Section 5 of the paper stresses that every accuracy-compromising
optimisation "can be turned on and off during run time of the simulation",
so a user can fast-forward through known-good boot phases and drop back to
cycle accuracy where detail matters.  This check drives exactly that
usage pattern: the same platform instance runs one window with the memory
dispatcher off (cycle accurate), one with it on, and one after switching it
off again, all without rebuilding the model.
"""

from __future__ import annotations

from repro.platform import ModelConfig, VanillaNetPlatform
from repro.signals import DataMode
from repro.software import BootParams, build_boot_program

WINDOW_INSTRUCTIONS = 200


def _platform() -> VanillaNetPlatform:
    config = ModelConfig(name="toggle", data_mode=DataMode.NATIVE,
                         use_methods=True, reduced_port_reading=True,
                         combined_processes=True)
    platform = VanillaNetPlatform(config)
    platform.load_program(build_boot_program(BootParams(
        bss_bytes=256, kernel_copy_bytes=256, page_clear_bytes=128,
        page_clear_count=2, rootfs_copy_bytes=128, checksum_words=32,
        progress_dots=2, timer_ticks=1, timer_period_cycles=500,
        device_probe_rounds=2)))
    platform.run_instructions(20, chunk_cycles=200)
    return platform


def test_runtime_dispatcher_toggle():
    """Accurate -> fast -> accurate windows on one live simulation."""
    platform = _platform()
    window_cycles = {"accurate": [], "fast": [], "accurate_again": []}

    for __ in range(2):
        platform.set_instruction_memory_suppression(False)
        platform.set_main_memory_suppression(False)
        window_cycles["accurate"].append(
            platform.run_instructions(WINDOW_INSTRUCTIONS,
                                      chunk_cycles=200))
        platform.set_instruction_memory_suppression(True)
        platform.set_main_memory_suppression(True)
        window_cycles["fast"].append(
            platform.run_instructions(WINDOW_INSTRUCTIONS,
                                      chunk_cycles=200))
        platform.set_instruction_memory_suppression(False)
        platform.set_main_memory_suppression(False)
        window_cycles["accurate_again"].append(
            platform.run_instructions(WINDOW_INSTRUCTIONS,
                                      chunk_cycles=200))

    mean = lambda values: sum(values) / max(1, len(values))
    accurate = mean(window_cycles["accurate"]
                    + window_cycles["accurate_again"])
    fast = mean(window_cycles["fast"])
    # The fast windows consume clearly fewer simulated cycles for the same
    # instruction budget (fetches take 1 cycle instead of >= 3).
    assert fast < accurate
    # The simulation kept running across toggles (no rebuild, no crash).
    assert platform.statistics.instructions_retired \
        >= 6 * WINDOW_INSTRUCTIONS * 0.9

"""Figure 2, bars 7-10 (E7-E10): the non-cycle-accurate models.

These configurations progressively trade cycle accuracy for speed:
instruction-fetch suppression (5.1), main-memory suppression (5.2),
address-gated rare peripherals (5.3) and memset/memcpy interception (5.4).
Expected shape: each step lowers the cycles needed per instruction (and so
the projected boot time), and kernel-function capture roughly halves the
boot time of the previous bar while barely changing raw CPS -- the paper's
"282 kHz measured, 578 kHz effective".  Each check here runs one window of
the boot and checks the bar's structure; the bars' speeds are measured,
interleaved with every other bar, by
``test_bench_fig2_summary.py::test_figure2_full_reproduction``.
"""

from __future__ import annotations

import pytest

from repro.platform import VariantName

from conftest import build_variant_platform, run_instruction_window

NON_CYCLE_ACCURATE_VARIANTS = [
    VariantName.SUPPRESS_INSTRUCTION_MEMORY,
    VariantName.SUPPRESS_MAIN_MEMORY,
    VariantName.REDUCED_SCHEDULING_2,
    VariantName.KERNEL_FUNCTION_CAPTURE,
]


@pytest.mark.parametrize("variant", NON_CYCLE_ACCURATE_VARIANTS,
                         ids=[variant.value
                              for variant in NON_CYCLE_ACCURATE_VARIANTS])
def test_non_cycle_accurate_variant_speed(variant):
    """One boot window of a non-cycle-accurate configuration."""
    platform = build_variant_platform(variant)
    run_instruction_window(platform)
    stats = platform.statistics
    assert not platform.config.is_cycle_accurate
    # Dispatcher-served fetches take one cycle, so CPI must be clearly lower
    # than the >= 4 of the fully cycle-accurate models.
    assert stats.cycles / max(1, stats.instructions_retired) < 4.0

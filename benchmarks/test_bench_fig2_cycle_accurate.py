"""Figure 2, bars 1-6 (E2-E6): the pin/cycle-accurate SystemC-style models.

One check per cycle-accurate configuration: each runs one window of the
synthetic uClinux boot and checks the bar's structure.  The bars' speeds
are measured, interleaved with every other bar, by
``test_bench_fig2_summary.py::test_figure2_full_reproduction``, whose
shape checks assert the expected shape, from the paper:

* the traced initial model is roughly half the speed of the untraced one,
* native data types are the single largest improvement (+132 % in the
  paper),
* threads-to-methods, reduced port reading and combined processes add only
  a few percent each (7.6 % together).
"""

from __future__ import annotations

import pytest

from repro.platform import VariantName

from conftest import build_variant_platform, run_instruction_window

CYCLE_ACCURATE_VARIANTS = [
    VariantName.INITIAL_TRACE,
    VariantName.INITIAL,
    VariantName.NATIVE_TYPES,
    VariantName.THREADS_TO_METHODS,
    VariantName.REDUCED_PORT_READING,
    VariantName.REDUCED_SCHEDULING,
]


@pytest.mark.parametrize("variant", CYCLE_ACCURATE_VARIANTS,
                         ids=[variant.value
                              for variant in CYCLE_ACCURATE_VARIANTS])
def test_cycle_accurate_variant_speed(variant):
    """One boot window of a cycle-accurate configuration."""
    platform = build_variant_platform(variant)
    run_instruction_window(platform)
    # Cycle-accurate sanity: every instruction costs several bus cycles.
    stats = platform.statistics
    assert stats.cycles >= stats.instructions_retired
    assert platform.config.is_cycle_accurate

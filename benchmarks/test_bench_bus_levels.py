"""Bus-abstraction ablation (E16): one model, three interconnect fabrics.

The claim under test: executing the *same* platform, workload and
measurement windows while swapping only the bus fabric -- pin-accurate
signal protocol vs arithmetic transaction-level vs functional DMI --
changes simulation speed by the amounts the abstraction ladder predicts,
with *identical* architectural results (the cross-fabric identity contract
of tests/test_bus_transport.py).

Gate: the functional fabric reaches >= 5x the signal fabric's CPS on at
least two bus-heavy variants.  "Bus-heavy" means every instruction fetch
crosses the OPB (no dispatcher): the resolved-signal bars (initial model,
with and without trace), where per-cycle slave decode over resolved logic
vectors dominates, plus the native-types bar for the cheaper-signal
regime.  Measurement interleaves the two fabrics' windows in one
:func:`repro.core.measure` call, exactly like the engine ablation, and
gates the median of the per-round ratios.

``test_bus_level_comparison_matrix`` renders the seam table from a sweep
over every fabric; ``examples/figure2_sweep.py --record`` is what writes
``figure2_bus_comparison.txt`` and ``BENCH_fig2.json``.
"""

from __future__ import annotations

import functools
import os

from conftest import build_variant_platform
from repro.bus import BUS_FUNCTIONAL, BUS_SIGNAL, BUS_TRANSACTION, bus_levels
from repro.core import (ExperimentOptions, build_report, measure,
                        run_matrix_sweep)
from repro.iss import CPU_CYCLE
from repro.kernel import ENGINE_GENERIC
from repro.platform import VariantName

#: The >= 5x claim holds with a wide margin on quiet hosts (the committed
#: figure2_bus_comparison.txt shows >= 20x on the resolved-signal bars);
#: the local gate sits at the claim, and CI runners only guard against
#: outright pessimisation.
SPEEDUP_FLOOR = 2.0 if os.environ.get("CI") else 5.0

#: How many bus-heavy variants must clear the floor.
VARIANTS_REQUIRED = 2

#: Bus-heavy variants: every instruction fetch is an OPB transfer.
RATIO_VARIANTS = [
    VariantName.INITIAL_TRACE,
    VariantName.INITIAL,
    VariantName.NATIVE_TYPES,
]

WINDOW_INSTRUCTIONS = 400
WINDOW_ROUNDS = 3

#: Windows of the sweep behind the comparison table: one short window
#: per cell, enough to render every row.
TABLE_OPTIONS = ExperimentOptions(instructions_per_phase=100, phases=1,
                                  boot_scale=0.4, chunk_cycles=200)

TABLE_VARIANTS = [
    VariantName.INITIAL,
    VariantName.NATIVE_TYPES,
    VariantName.REDUCED_SCHEDULING,
    VariantName.KERNEL_FUNCTION_CAPTURE,
]


def test_functional_fabric_speedup():
    """Functional-over-signal CPS ratio on the bus-heavy variants."""
    speedups = {}
    for variant in RATIO_VARIANTS:
        platforms = {
            level: build_variant_platform(variant, bus_level=level)
            for level in (BUS_SIGNAL, BUS_FUNCTIONAL)}
        speeds = measure(
            {level: functools.partial(platform.run_instructions,
                                      WINDOW_INSTRUCTIONS, chunk_cycles=400)
             for level, platform in platforms.items()}, WINDOW_ROUNDS)
        signal = platforms[BUS_SIGNAL]
        functional = platforms[BUS_FUNCTIONAL]
        # Same model, same workload: the fabrics must have executed
        # the identical instruction stream in identical cycles.
        assert (signal.statistics.instructions_retired
                == functional.statistics.instructions_retired)
        assert signal.cycle_count == functional.cycle_count
        assert signal.console_output == functional.console_output
        speedups[variant.value] = \
            speeds[BUS_FUNCTIONAL].over(speeds[BUS_SIGNAL])
        print(f"{variant.value} functional/signal: {speedups[variant.value]}")
    cleared = [name for name, ratio in speedups.items()
               if ratio.median >= SPEEDUP_FLOOR]
    assert len(cleared) >= VARIANTS_REQUIRED, \
        f"functional fabric >= {SPEEDUP_FLOOR}x on only {cleared} " \
        f"(measured {speedups})"


def test_transaction_fabric_removes_bus_kernel_work():
    """The transaction fabric does strictly less kernel work per cycle.

    No arbiter activation, no slave decode activations and no bus-signal
    updates remain -- while the executed instruction stream and the cycle
    count stay identical.
    """
    counters = {}
    for level in (BUS_SIGNAL, BUS_TRANSACTION):
        platform = build_variant_platform(VariantName.NATIVE_TYPES,
                                          bus_level=level)
        platform.run_instructions(800, chunk_cycles=400)
        counters[level] = (platform.sim.stats.as_dict(),
                           platform.statistics.instructions_retired,
                           platform.cycle_count)
    signal_stats, signal_retired, signal_cycles = counters[BUS_SIGNAL]
    txn_stats, txn_retired, txn_cycles = counters[BUS_TRANSACTION]
    assert signal_retired == txn_retired
    assert signal_cycles == txn_cycles
    # ~10 of the ~13 per-cycle activations (9 slave decodes + arbiter)
    # disappear; allow slack for the non-bus processes that remain.
    assert txn_stats["process_activations"] \
        < signal_stats["process_activations"] * 0.4
    assert txn_stats["channel_updates"] \
        < signal_stats["channel_updates"] * 0.5


def test_bus_level_comparison_matrix():
    """Representative variants on every bus level render the bus table.

    The >= 5x claim is gated by test_functional_fabric_speedup above; the
    table's exact layout and ratios are pinned from fixed results in
    tests/test_seam_tables.py.
    """
    sweep = run_matrix_sweep(options=TABLE_OPTIONS, variants=TABLE_VARIANTS,
                             engines=[ENGINE_GENERIC],
                             cpu_levels=[CPU_CYCLE], jobs=1)
    sweep.raise_on_errors()
    report = build_report(sweep.results)
    print("\n" + report.format_seam_table("bus_level") + "\n")
    assert set(report.levels_present("bus_level")) == set(bus_levels())
    assert report.best_speedup("bus_level", BUS_FUNCTIONAL) > 0.0

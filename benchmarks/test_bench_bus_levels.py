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
regime.  Measurement uses interleaved best-of CPU-time windows, exactly
like the engine ablation.

The measured matrix is recorded into ``BENCH_fig2.json`` (keyed
variant/engine/bus level) and rendered into ``figure2_bus_comparison.txt``
in the repository root.
"""

from __future__ import annotations

import os
import pathlib
import time

from conftest import build_variant_platform, record_fig2_results
from repro.bus import BUS_FUNCTIONAL, BUS_SIGNAL, BUS_TRANSACTION, bus_levels
from repro.core import ExperimentOptions, build_report, run_matrix_sweep
from repro.iss import CPU_CYCLE
from repro.kernel import ENGINE_GENERIC
from repro.platform import VariantName

RESULTS_PATH = pathlib.Path(__file__).resolve().parent.parent \
    / "figure2_bus_comparison.txt"

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

#: Windows for the recorded comparison table (smaller: nine
#: variant x level cells are measured).
TABLE_OPTIONS = ExperimentOptions(instructions_per_phase=150, phases=2,
                                  boot_scale=0.4, chunk_cycles=200)

TABLE_VARIANTS = [
    VariantName.INITIAL,
    VariantName.NATIVE_TYPES,
    VariantName.REDUCED_SCHEDULING,
    VariantName.KERNEL_FUNCTION_CAPTURE,
]


def test_functional_fabric_speedup(benchmark):
    """Functional-over-signal CPS ratio on the bus-heavy variants."""

    def measure():
        speedups = {}
        for variant in RATIO_VARIANTS:
            platforms = {
                level: build_variant_platform(variant, bus_level=level)
                for level in (BUS_SIGNAL, BUS_FUNCTIONAL)}
            best = {level: 0.0 for level in platforms}
            # Interleave windows between the fabrics so host-load drift
            # hits both measurements equally; rank windows by CPU time so
            # a noisy co-tenant cannot distort the ratio.
            for __ in range(WINDOW_ROUNDS):
                for level, platform in platforms.items():
                    cycles_before = platform.cycle_count
                    started = time.process_time()
                    platform.run_instructions(WINDOW_INSTRUCTIONS,
                                              chunk_cycles=400)
                    elapsed = time.process_time() - started
                    cycles = platform.cycle_count - cycles_before
                    if cycles and elapsed > 0:
                        best[level] = max(best[level], cycles / elapsed)
            signal = platforms[BUS_SIGNAL]
            functional = platforms[BUS_FUNCTIONAL]
            # Same model, same workload: the fabrics must have executed
            # the identical instruction stream in identical cycles.
            assert (signal.statistics.instructions_retired
                    == functional.statistics.instructions_retired)
            assert signal.cycle_count == functional.cycle_count
            assert signal.console_output == functional.console_output
            if best[BUS_SIGNAL] > 0:
                speedups[variant.value] = \
                    best[BUS_FUNCTIONAL] / best[BUS_SIGNAL]
        return speedups

    speedups = benchmark.pedantic(measure, rounds=1, iterations=1,
                                  warmup_rounds=0)
    if sum(ratio >= SPEEDUP_FLOOR for ratio in speedups.values()) \
            < VARIANTS_REQUIRED:
        # One transient burst of host load can depress a measurement;
        # re-measure once and keep the better reading per variant.
        retry = measure()
        speedups = {name: max(ratio, retry.get(name, 0.0))
                    for name, ratio in speedups.items()}
    for name, ratio in speedups.items():
        benchmark.extra_info[f"{name}_speedup"] = round(ratio, 2)
    cleared = [name for name, ratio in speedups.items()
               if ratio >= SPEEDUP_FLOOR]
    benchmark.extra_info["variants_over_floor"] = len(cleared)
    assert len(cleared) >= VARIANTS_REQUIRED, \
        f"functional fabric >= {SPEEDUP_FLOOR}x on only {cleared} " \
        f"(measured {speedups})"


def test_transaction_fabric_removes_bus_kernel_work(benchmark):
    """The transaction fabric does strictly less kernel work per cycle.

    No arbiter activation, no slave decode activations and no bus-signal
    updates remain -- while the executed instruction stream and the cycle
    count stay identical.
    """

    def measure():
        counters = {}
        for level in (BUS_SIGNAL, BUS_TRANSACTION):
            platform = build_variant_platform(VariantName.NATIVE_TYPES,
                                              bus_level=level)
            platform.run_instructions(800, chunk_cycles=400)
            counters[level] = (platform.sim.stats.as_dict(),
                               platform.statistics.instructions_retired,
                               platform.cycle_count)
        return counters

    counters = benchmark.pedantic(measure, rounds=1, iterations=1,
                                  warmup_rounds=0)
    signal_stats, signal_retired, signal_cycles = counters[BUS_SIGNAL]
    txn_stats, txn_retired, txn_cycles = counters[BUS_TRANSACTION]
    assert signal_retired == txn_retired
    assert signal_cycles == txn_cycles
    benchmark.extra_info["activations_signal"] = \
        signal_stats["process_activations"]
    benchmark.extra_info["activations_transaction"] = \
        txn_stats["process_activations"]
    # ~10 of the ~13 per-cycle activations (9 slave decodes + arbiter)
    # disappear; allow slack for the non-bus processes that remain.
    assert txn_stats["process_activations"] \
        < signal_stats["process_activations"] * 0.4
    assert txn_stats["channel_updates"] \
        < signal_stats["channel_updates"] * 0.5


def test_bus_level_comparison_matrix(benchmark):
    """Representative variants on every bus level, into the report files.

    Writes ``figure2_bus_comparison.txt`` (the bus-abstraction rows next
    to their signal-level baselines) and records every measured cell into
    ``BENCH_fig2.json`` keyed by variant/engine/bus level.
    """
    def run_matrix():
        sweep = run_matrix_sweep(options=TABLE_OPTIONS,
                                 variants=TABLE_VARIANTS,
                                 engines=[ENGINE_GENERIC],
                                 cpu_levels=[CPU_CYCLE], jobs=1)
        sweep.raise_on_errors()
        return sweep.results

    results = benchmark.pedantic(run_matrix, rounds=1, iterations=1,
                                 warmup_rounds=0)
    report = build_report(results)
    table = report.format_seam_table("bus_level")
    print("\n" + table + "\n")
    RESULTS_PATH.write_text(table + "\n")
    for result in results:
        benchmark.extra_info[
            f"{result.variant.value}[{result.bus_level}]_cps_khz"] = round(
                result.cps_khz, 3)
    best = report.best_speedup("bus_level", BUS_FUNCTIONAL)
    benchmark.extra_info["best_functional_speedup"] = round(best, 2)
    record_fig2_results(results)
    assert set(report.levels_present("bus_level")) == set(bus_levels())
    # Informational only: single-round wall-clock ratios are too noisy to
    # gate on.  The >= 5x claim is asserted by
    # test_functional_fabric_speedup above, which measures with
    # interleaved best-of CPU-time windows and a retry.
    assert best > 0.0

"""Figure 2 summary (E14): the complete reproduced figure and its claims.

Runs the full experiment harness over every Figure 2 configuration (RTL
baseline plus the ten SystemC-style variants), prints the reproduced table
next to the paper's numbers, writes it to ``figure2_reproduction.txt`` in
the repository root, and asserts the paper's qualitative claims (the "shape
checks"): SystemC is orders of magnitude faster than RTL, native data types
are the big cycle-accurate win, the later cycle-accurate tweaks are small,
the dispatcher steps cut boot time, and kernel-function capture roughly
halves it again.
"""

from __future__ import annotations

import pathlib
import time

from conftest import (BENCH_FIG2_PATH, BENCH_FIG2_SCHEMA, load_fig2_results,
                      record_fig2_results)
from repro.bus import BUS_SIGNAL, bus_levels
from repro.core import (ExperimentOptions, Figure2Experiment, build_report,
                        run_matrix_sweep)
from repro.iss import CPU_CYCLE, cpu_levels
from repro.kernel import ENGINE_CLOCKED, engine_kinds
from repro.platform import VanillaNetPlatform, VariantName, variant_config
from repro.software import build_boot_program

RESULTS_PATH = pathlib.Path(__file__).resolve().parent.parent \
    / "figure2_reproduction.txt"

OPTIONS = ExperimentOptions(instructions_per_phase=200, phases=3,
                            rtl_cycles_per_phase=800, boot_scale=0.4,
                            chunk_cycles=200)

#: Smaller windows for the engine-comparison matrix (every variant is
#: measured twice, once per engine).
ENGINE_MATRIX_OPTIONS = ExperimentOptions(
    instructions_per_phase=150, phases=2, rtl_cycles_per_phase=500,
    boot_scale=0.4, chunk_cycles=200)


def _tracing_slowdown_interleaved(rounds: int = 4,
                                  instructions: int = 150) -> float:
    """Untraced-over-traced CPS ratio of the initial model, measured with
    interleaved best-of CPU-time windows.

    The tracing cost on the resolved-signal initial model is only a few
    percent here (the Python-hosted resolved signals dwarf the tracer, see
    the shape-check comment in core/figure2.py), so the sequential
    wall-clock windows of the full sweep can invert it under host load.
    Interleaving cancels the drift and CPU time cancels co-tenant noise.
    """
    variants = (VariantName.INITIAL, VariantName.INITIAL_TRACE)
    platforms = {}
    for variant in variants:
        platform = VanillaNetPlatform(variant_config(variant))
        platform.load_program(build_boot_program(OPTIONS.boot_params()))
        platform.run_instructions(30, chunk_cycles=200)
        platforms[variant] = platform
    best = {variant: 0.0 for variant in variants}
    for __ in range(rounds):
        for variant, platform in platforms.items():
            cycles_before = platform.cycle_count
            started = time.process_time()
            platform.run_instructions(instructions, chunk_cycles=200)
            elapsed = time.process_time() - started
            cycles = platform.cycle_count - cycles_before
            if cycles and elapsed > 0:
                best[variant] = max(best[variant], cycles / elapsed)
    if best[VariantName.INITIAL_TRACE] <= 0:
        return float("inf")
    return best[VariantName.INITIAL] / best[VariantName.INITIAL_TRACE]


def test_figure2_full_reproduction(benchmark):
    """Measure every Figure 2 configuration and check the paper's claims."""
    experiment = Figure2Experiment(OPTIONS)

    def run_everything():
        return experiment.run(list(VariantName))

    results = benchmark.pedantic(run_everything, rounds=1, iterations=1,
                                 warmup_rounds=0)
    report = build_report(results)

    table = report.format_table()
    summary = report.summary_lines()
    checks = report.shape_checks()
    if not checks.get("tracing_slows_the_initial_model", True):
        # The only few-percent-margin check: re-measure the two bars
        # head-to-head before declaring a regression (the other checks
        # compare order-of-magnitude effects).
        slowdown = _tracing_slowdown_interleaved()
        benchmark.extra_info["tracing_slowdown_remeasured"] = round(
            slowdown, 3)
        checks["tracing_slows_the_initial_model"] = slowdown > 1.03
    output = "\n".join([
        "Figure 2 reproduction (measured on this host, scaled boot "
        "workload)", "", table, "",
        "summary claims:", *[f"  - {line}" for line in summary], "",
        "shape checks:",
        *[f"  - {name}: {'PASS' if ok else 'FAIL'}"
          for name, ok in checks.items()], ""])
    RESULTS_PATH.write_text(output)
    print("\n" + output)

    for result in results:
        benchmark.extra_info[result.variant.value + "_cps_khz"] = round(
            result.cps_khz, 3)

    # Core qualitative claims of the paper must reproduce.
    assert checks.get("systemc_orders_of_magnitude_faster_than_rtl", False)
    assert checks.get("native_types_is_largest_cycle_accurate_gain", False)
    assert checks.get("kernel_capture_roughly_halves_boot_time", False)
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"shape checks failed: {failed}"
    # BENCH_fig2.json is written by the engine-comparison matrix below,
    # which measures both engines with identical windows; recording these
    # differently-windowed generic rows too would silently mix
    # incomparable measurements under the same keys.


def test_engine_comparison_matrix(benchmark):
    """Every Figure 2 variant on every engine, into ``BENCH_fig2.json``.

    The extended ablation: the same models, workloads and measurement
    windows, differing only in the simulation engine.  The clocked engine
    must never change architectural behaviour (that contract is enforced by
    the tier-1 tests); here its speed is recorded so the perf trajectory is
    machine-readable across PRs.
    """
    def run_matrix():
        sweep = run_matrix_sweep(options=ENGINE_MATRIX_OPTIONS,
                                 variants=list(VariantName),
                                 bus_levels=[BUS_SIGNAL],
                                 cpu_levels=[CPU_CYCLE], jobs=1)
        sweep.raise_on_errors()
        return sweep.results

    results = benchmark.pedantic(run_matrix, rounds=1, iterations=1,
                                 warmup_rounds=0)
    report = build_report(results)
    table = report.format_seam_table("engine")
    print("\n" + table + "\n")
    (RESULTS_PATH.parent / "figure2_engine_comparison.txt").write_text(
        table + "\n")
    for result in results:
        benchmark.extra_info[
            f"{result.variant.value}[{result.engine}]_cps_khz"] = round(
                result.cps_khz, 3)
    best = report.best_speedup("engine", ENGINE_CLOCKED)
    benchmark.extra_info["best_clocked_speedup"] = round(best, 2)
    record_fig2_results(results)
    # Informational only: single-round wall-clock ratios are too noisy to
    # gate on.  The >= 1.3x claim is asserted by test_bench_engines.py,
    # which measures with interleaved best-of windows and a retry.
    assert best > 0.0


def test_bench_fig2_json_schema_complete():
    """``BENCH_fig2.json`` covers every variant on every engine.

    Runs after the matrix benchmark above (pytest executes tests in file
    order), so a full benchmark run always leaves a complete document.
    Entries are keyed ``variant/engine/bus_level/cpu_level``; the engine
    matrix fills the signal-level per-cycle plane, the bus-level
    benchmark (test_bench_bus_levels.py) adds transaction/functional
    rows and the CPU-level benchmark (test_bench_cpu_levels.py) adds
    quantum rows for their measured subsets.
    """
    assert BENCH_FIG2_PATH.exists(), \
        "BENCH_fig2.json missing; run the fig2 benchmarks first"
    document = load_fig2_results()
    assert document["schema"] == BENCH_FIG2_SCHEMA
    entries = document["entries"]
    missing = []
    for variant in VariantName:
        for engine in engine_kinds():
            key = f"{variant.value}/{engine}/{BUS_SIGNAL}/{CPU_CYCLE}"
            if key not in entries:
                missing.append(key)
    assert not missing, f"BENCH_fig2.json lacks entries: {missing}"
    for key, entry in entries.items():
        if "error" in entry:
            # A failed or timed-out sweep cell is recorded as an explicit
            # error entry (never a silently missing key): it carries no
            # measurement to validate.
            continue
        if key.startswith("cluster"):
            # Multi-node cells (merge_cluster_results) share the document
            # but not the single-node shape: no Figure 2 variant applies,
            # and the per-node kernel counters are not aggregated.
            assert set(entry) >= {"nodes", "engine", "bus_level",
                                  "cpu_level", "cps_khz", "cycles",
                                  "frames_delivered"}, \
                f"cluster entry {key} incomplete: {sorted(entry)}"
            assert entry["nodes"] >= 2, \
                f"cluster entry {key} has {entry['nodes']} node(s)"
        else:
            assert set(entry) >= {"variant", "engine", "bus_level",
                                  "cpu_level", "cps_khz", "counters"}, \
                f"entry {key} incomplete: {sorted(entry)}"
            assert set(entry["counters"]) >= {
                "process_activations", "delta_cycles", "timed_steps",
                "channel_updates", "events_notified"}, \
                f"entry {key} lacks kernel counters"
        assert entry["bus_level"] in bus_levels(), \
            f"entry {key} has unknown bus level {entry['bus_level']!r}"
        assert entry["cpu_level"] in cpu_levels(), \
            f"entry {key} has unknown cpu level {entry['cpu_level']!r}"
        assert entry["cps_khz"] > 0, f"entry {key} has non-positive CPS"

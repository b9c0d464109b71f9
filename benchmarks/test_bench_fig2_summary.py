"""Figure 2 summary (E14): the complete reproduced figure and its claims.

Runs the full experiment harness over every Figure 2 configuration (RTL
baseline plus the ten SystemC-style variants), prints the reproduced table
next to the paper's numbers, and asserts the paper's qualitative claims
(the "shape checks"): SystemC is orders of magnitude faster than RTL,
native data types are the big cycle-accurate win, the later
cycle-accurate tweaks are small, the dispatcher steps cut boot time, and
kernel-function capture roughly halves it again.

The harness interleaves the eleven bars' windows round by round, and each
check reads the median of its per-round ratios; forty rounds keep the
few-percent steps (tracing, bars 4-6) from turning over on host noise.
Nothing is written into the checkout: ``examples/figure2_sweep.py
--record`` records ``figure2_reproduction.txt`` and ``BENCH_fig2.json``.
"""

from __future__ import annotations

from repro.bus import BUS_FUNCTIONAL, BUS_SIGNAL, bus_levels
from repro.core import (ClusterResult, ExperimentOptions, Figure2Experiment,
                        SpeedMeasurement, VariantResult, build_report,
                        expand_matrix, load_fig2_results, record_fig2_results,
                        run_matrix_sweep)
from repro.core.sweep import BENCH_FIG2_SCHEMA
from repro.iss import CPU_CYCLE, CPU_QUANTUM, cpu_levels
from repro.kernel import ENGINE_CLOCKED, ENGINE_GENERIC, engine_kinds
from repro.platform import VariantName

#: Forty timed rounds of 50 instructions per SystemC bar.  Short windows
#: pair each bar's round with its neighbours' closely: on a 2-CPU host
#: the tracing ratio read 1.16-1.20 over four runs this way, and
#: 1.01-1.20 with ten rounds of 200.  The RTL window is short because the
#: register-level model runs at about 0.15 kHz.
OPTIONS = ExperimentOptions(instructions_per_phase=50, phases=40,
                            rtl_cycles_per_phase=15, boot_scale=0.4,
                            chunk_cycles=200)

#: Windows of the sweep behind the engine table: one short window per
#: cell, enough to render every row.
ENGINE_MATRIX_OPTIONS = ExperimentOptions(
    instructions_per_phase=100, phases=1, rtl_cycles_per_phase=50,
    boot_scale=0.4, chunk_cycles=200)


def test_figure2_full_reproduction():
    """Measure every Figure 2 configuration and check the paper's claims."""
    report = build_report(Figure2Experiment(OPTIONS).run(list(VariantName)))
    checks = report.shape_checks()
    readings = report.format_shape_checks()
    print("\n".join([
        "Figure 2 reproduction (measured on this host, scaled boot "
        "workload)", "", report.format_table(), "",
        "summary claims:",
        *[f"  - {line}" for line in report.summary_lines()], "",
        "shape checks:", *[f"  - {line}" for line in readings], ""]))

    # Core qualitative claims of the paper must reproduce.
    assert checks.get("systemc_orders_of_magnitude_faster_than_rtl", False)
    assert checks.get("native_types_is_largest_cycle_accurate_gain", False)
    assert checks.get("kernel_capture_roughly_halves_boot_time", False)
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"shape checks failed: {failed} ({readings})"


def test_engine_comparison_matrix():
    """Every Figure 2 variant on every engine renders the engine table.

    The >= 1.3x claim is gated by test_bench_engines.py; the table's
    exact layout and ratios are pinned from fixed results in
    tests/test_seam_tables.py.
    """
    sweep = run_matrix_sweep(options=ENGINE_MATRIX_OPTIONS,
                             variants=list(VariantName),
                             bus_levels=[BUS_SIGNAL],
                             cpu_levels=[CPU_CYCLE], jobs=1)
    sweep.raise_on_errors()
    report = build_report(sweep.results)
    print("\n" + report.format_seam_table("engine") + "\n")
    assert set(report.levels_present("engine")) == set(engine_kinds())
    assert report.best_speedup("engine", ENGINE_CLOCKED) > 0.0


def test_bench_fig2_json_schema_complete(tmp_path):
    """A recorded ``BENCH_fig2.json`` covers every variant on every engine.

    The document is recorded from fixed results, the way
    ``examples/figure2_sweep.py --record`` records a full sweep: the
    signal-level per-cycle plane of every variant on every engine, bus-
    and cpu-level rows for a subset, the cluster cells and one failed
    cell.  Entries are keyed ``variant/engine/bus_level/cpu_level``.
    """
    speed = SpeedMeasurement((20_000.0, 21_000.0))
    cells = expand_matrix(list(VariantName), bus_levels=[BUS_SIGNAL],
                          cpu_levels=[CPU_CYCLE]) + expand_matrix(
        [VariantName.NATIVE_TYPES], engines=[ENGINE_GENERIC],
        bus_levels=[BUS_FUNCTIONAL], cpu_levels=[CPU_QUANTUM])
    counters = dict.fromkeys(("process_activations", "delta_cycles",
                              "timed_steps", "channel_updates",
                              "events_notified"), 1)
    results = [VariantResult(cell.variant, speed, engine=cell.engine,
                             bus_level=cell.bus_level,
                             cpu_level=cell.cpu_level,
                             kernel_counters=counters) for cell in cells]
    clusters = [ClusterResult(2, ENGINE_CLOCKED, BUS_FUNCTIONAL, CPU_QUANTUM,
                              finished=True, cycles=1446, speed=speed,
                              frames_delivered=6)]
    errors = [{"variant": VariantName.INITIAL.value,
               "engine": ENGINE_GENERIC, "bus_level": BUS_FUNCTIONAL,
               "cpu_level": CPU_CYCLE, "error": "TimeoutError"}]
    path = tmp_path / "BENCH_fig2.json"
    record_fig2_results(results, path, history_dir=tmp_path / "history",
                        errors=errors, clusters=clusters)
    assert list((tmp_path / "history").glob("*.json"))

    document = load_fig2_results(path)
    assert document["schema"] == BENCH_FIG2_SCHEMA
    entries = document["entries"]
    missing = []
    for variant in VariantName:
        for engine in engine_kinds():
            key = f"{variant.value}/{engine}/{BUS_SIGNAL}/{CPU_CYCLE}"
            if key not in entries:
                missing.append(key)
    assert not missing, f"BENCH_fig2.json lacks entries: {missing}"
    assert len(entries) == len(results) + len(clusters) + len(errors)
    for key, entry in entries.items():
        if "error" in entry:
            # A failed or timed-out sweep cell is recorded as an explicit
            # error entry (never a silently missing key): it carries no
            # measurement to validate.
            assert "cps_khz" not in entry
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
        assert entry["cps_khz"] == 20.5, f"entry {key} has CPS " \
            f"{entry['cps_khz']}, not its median"

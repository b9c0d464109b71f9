#!/usr/bin/env python3
"""Figure 2 sweep: measure model configurations in parallel, print tables.

This drives :func:`repro.core.run_matrix_sweep` -- the parallel sweep
runner with checkpoint/restore warm starts -- over the requested slice of
the (variant x engine x bus level x cpu level) matrix and prints the
reproduced figure next to the paper's numbers, together with the
qualitative "shape checks" and one comparison table per execution seam
(engine, bus level, cpu level) that the measured slice spans.

Each SystemC variant is booted once, snapshotted at the warm-up point,
and every matrix cell of that variant restores the snapshot instead of
re-simulating the boot; ``--jobs N`` spreads the cells over N worker
processes.  Results are merged in canonical matrix order, so any jobs
count produces identical output.

Run with:  python examples/figure2_sweep.py [--jobs N] [--quick]
           [--variants initial,native_types] [--cells KEY[,KEY...]]
           [--no-snapshot] [--record]
"""

import argparse
import os
import pathlib
import sys

from repro.core import (ExperimentOptions, SweepCell, build_report,
                        record_fig2_results, run_matrix_sweep)
from repro.core.sweep import stderr_progress
from repro.platform import VariantName

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

QUICK_SUBSET = [
    VariantName.RTL_HDL,
    VariantName.INITIAL,
    VariantName.NATIVE_TYPES,
    VariantName.SUPPRESS_MAIN_MEMORY,
    VariantName.KERNEL_FUNCTION_CAPTURE,
]


def parse_variants(text: str) -> list[VariantName]:
    """Comma-separated variant values -> VariantName list."""
    variants = []
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            variants.append(VariantName(name))
        except ValueError:
            known = ", ".join(variant.value for variant in VariantName)
            raise SystemExit(f"unknown variant {name!r}; known: {known}")
    return variants


def parse_cells(text: str) -> list[SweepCell]:
    """Comma-separated ``variant/engine/bus/cpu`` keys -> SweepCell list."""
    cells = []
    for key in text.split(","):
        key = key.strip()
        if not key:
            continue
        fields = key.split("/")
        if len(fields) != 4:
            raise SystemExit(f"bad cell key {key!r}; expected "
                             f"variant/engine/bus_level/cpu_level")
        variant, engine, bus_level, cpu_level = fields
        cells.append(SweepCell(VariantName(variant), engine, bus_level,
                               cpu_level))
    return cells


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: all CPU cores; "
                             "1 = run inline)")
    parser.add_argument("--quick", action="store_true",
                        help="measure a representative subset of variants")
    parser.add_argument("--variants", metavar="A,B,...",
                        help="comma-separated variant names to measure "
                             "(default: every Figure 2 bar)")
    parser.add_argument("--cells", metavar="KEY,...",
                        help="explicit variant/engine/bus_level/cpu_level "
                             "cell keys, overriding the dimension options")
    parser.add_argument("--engines", metavar="A,B,...",
                        help="comma-separated engine names "
                             "(default: every engine)")
    parser.add_argument("--bus", metavar="A,B,...",
                        help="comma-separated bus levels "
                             "(default: every fabric)")
    parser.add_argument("--cpu", metavar="A,B,...",
                        help="comma-separated cpu levels "
                             "(default: every level)")
    parser.add_argument("--no-snapshot", action="store_true",
                        help="skip warm-start snapshots: every cell "
                             "re-runs its own warm-up")
    parser.add_argument("--phases", type=int, default=3,
                        help="measurement windows per cell")
    parser.add_argument("--instructions", type=int, default=250,
                        help="instruction budget per window")
    parser.add_argument("--warmup", type=int, default=250,
                        help="warm-up instructions before the first "
                             "window (the snapshot point)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-job watchdog timeout in seconds")
    parser.add_argument("--retries", type=int, default=1,
                        help="retries per failed/timed-out job")
    parser.add_argument("--record", action="store_true",
                        help="merge the results into BENCH_fig2.json and "
                             "the bench_history/ ledger")
    arguments = parser.parse_args()

    options = ExperimentOptions(
        instructions_per_phase=arguments.instructions,
        phases=arguments.phases,
        rtl_cycles_per_phase=800,
        boot_scale=0.4,
        warmup_instructions=arguments.warmup)

    variants = None
    if arguments.variants:
        variants = parse_variants(arguments.variants)
    elif arguments.quick:
        variants = QUICK_SUBSET
    cells = parse_cells(arguments.cells) if arguments.cells else None
    engines = arguments.engines.split(",") if arguments.engines else None
    bus_levels = arguments.bus.split(",") if arguments.bus else None
    cpu_levels = arguments.cpu.split(",") if arguments.cpu else None

    jobs = arguments.jobs if arguments.jobs else (os.cpu_count() or 1)
    print(f"sweeping with {jobs} job(s), "
          f"{arguments.phases} windows x {arguments.instructions} "
          f"instructions per cell, warm start "
          f"{'off' if arguments.no_snapshot else 'on'} ...")
    report = run_matrix_sweep(
        options=options, variants=variants, engines=engines,
        bus_levels=bus_levels, cpu_levels=cpu_levels, cells=cells,
        jobs=jobs, timeout_s=arguments.timeout, retries=arguments.retries,
        use_snapshots=not arguments.no_snapshot,
        progress=stderr_progress)
    print(f"measured {len(report.results)}/{report.cells_total} cells in "
          f"{report.elapsed_seconds:.1f}s "
          f"({report.retries_used} retries, {len(report.errors)} errors)")

    figure = build_report(report.results)
    # The headline table shows one bar per variant (the paper's own
    # generic-engine, signal-bus, cycle-level configuration when present);
    # the ablation tables below spread over the other matrix dimensions.
    bars = build_report([figure.result_for(variant)
                         for variant in VariantName if figure.has(variant)])
    print("\n" + bars.format_table())
    for seam, title in (("engine", "engine comparison"),
                        ("bus_level", "bus-level comparison"),
                        ("cpu_level", "cpu-level comparison")):
        table = figure.format_seam_table(seam)
        if table:
            print(f"\n{title}:\n{table}")
    print("\nsummary claims (paper sections 4.6 / 5.5 / 7):")
    for line in figure.summary_lines():
        print(f"  - {line}")
    print("\nshape checks:")
    for name, passed in figure.shape_checks().items():
        print(f"  - {name}: {'PASS' if passed else 'FAIL'}")
    for error in report.errors:
        print(f"ERROR {error['variant']}/{error['engine']}"
              f"/{error['bus_level']}/{error['cpu_level']}: "
              f"{error['error']}", file=sys.stderr)

    if arguments.record:
        record_fig2_results(report.results,
                            REPO_ROOT / "BENCH_fig2.json",
                            history_dir=REPO_ROOT / "bench_history",
                            errors=report.errors)
        print(f"\nrecorded {len(report.results)} entries "
              f"(+{len(report.errors)} error entries) into BENCH_fig2.json "
              f"and bench_history/")

    if report.errors:
        raise SystemExit(1)


if __name__ == "__main__":
    main()

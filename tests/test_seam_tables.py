"""Golden renderings of the seam comparison tables.

A *seam* is one of the three execution choices a Figure 2 variant runs
under: engine, bus level and cpu level.  ``Figure2Report`` renders one
comparison table per seam and reports each seam's best speed-up.  These
tests need no timing: every result carries fixed ``SpeedMeasurement``
windows, so the tables and ratios are exact.  The cell sets are the full
12-combo matrix (two variants plus the RTL baseline) and the three slices
the benchmarks measure (``benchmarks/test_bench_fig2_summary.py``,
``test_bench_bus_levels.py`` and ``test_bench_cpu_levels.py``).
"""

import pytest

from repro.bus import BUS_FUNCTIONAL, BUS_SIGNAL, BUS_TRANSACTION
from repro.core import (AggregatedSpeed, SpeedMeasurement, VariantResult,
                        build_report, expand_matrix)
from repro.iss import CPU_CYCLE, CPU_QUANTUM
from repro.kernel import ENGINE_CLOCKED, ENGINE_GENERIC
from repro.platform import VariantName

CELL_SETS = {
    "full": expand_matrix([VariantName.RTL_HDL, VariantName.INITIAL,
                           VariantName.KERNEL_FUNCTION_CAPTURE]),
    "engine_bench": expand_matrix(list(VariantName),
                                  bus_levels=[BUS_SIGNAL],
                                  cpu_levels=[CPU_CYCLE]),
    "bus_bench": expand_matrix([VariantName.INITIAL,
                                VariantName.NATIVE_TYPES,
                                VariantName.REDUCED_SCHEDULING,
                                VariantName.KERNEL_FUNCTION_CAPTURE],
                               engines=[ENGINE_GENERIC],
                               cpu_levels=[CPU_CYCLE]),
    "cpu_bench": expand_matrix([VariantName.NATIVE_TYPES,
                                VariantName.SUPPRESS_MAIN_MEMORY,
                                VariantName.REDUCED_SCHEDULING_2,
                                VariantName.KERNEL_FUNCTION_CAPTURE],
                               engines=[ENGINE_GENERIC],
                               bus_levels=[BUS_FUNCTIONAL]),
}

SEAMS = ("engine", "bus_level", "cpu_level")

#: (seam, level) pairs whose best speed-up is pinned.
BEST_PAIRS = (("engine", ENGINE_CLOCKED), ("bus_level", BUS_TRANSACTION),
              ("bus_level", BUS_FUNCTIONAL), ("cpu_level", CPU_QUANTUM))


def fixed_result(variant, engine, bus_level, cpu_level, *, cycles,
                 wall_seconds, cpi=2, processes=6) -> VariantResult:
    """A result with one fixed measurement window."""
    speed = AggregatedSpeed(variant.value)
    speed.add(SpeedMeasurement(variant.value, simulated_cycles=cycles,
                               wall_seconds=wall_seconds,
                               instructions_retired=cycles // cpi))
    return VariantResult(variant, speed, process_count=processes,
                         engine=engine, bus_level=bus_level,
                         cpu_level=cpu_level)


def fixed_results(cells) -> list[VariantResult]:
    """Distinct, deterministic speeds, CPIs and process counts per cell."""
    return [fixed_result(cell.variant, cell.engine, cell.bus_level,
                         cell.cpu_level, cycles=6_000 + 250 * index,
                         wall_seconds=0.1 + 0.013 * (index * 7 % 11),
                         cpi=2 + index % 5, processes=6 + index % 12)
            for index, cell in enumerate(cells)]


GOLDEN_TABLES = {
    ("bus_bench", "engine"): "",
    ("bus_bench", "bus_level"): """\
configuration               bus level  CPS [kHz]    CPI  procs  vs signal
-------------------------------------------------------------------------
initial                        signal     60.000   2.00      6          -
initial                   transaction     32.723   3.00      7      0.55x
initial                    functional     46.763   4.00      8      0.78x
native_types                   signal     29.348   5.00      9          -
native_types              transaction     39.326   6.00     10      1.34x
native_types               functional     57.540   2.00     11      1.96x
reduced_scheduling             signal     34.562   3.00     12          -
reduced_scheduling        transaction     46.970   4.00     13      1.36x
reduced_scheduling         functional     70.796   5.00     14      2.05x
kernel_function_capture        signal     40.441   6.00     15          -
kernel_function_capture   transaction     55.921   2.00     16      1.38x
kernel_function_capture    functional     87.500   3.00     17      2.16x""",
    ("bus_bench", "cpu_level"): "",
    ("cpu_bench", "engine"): "",
    ("cpu_bench", "bus_level"): "",
    ("cpu_bench", "cpu_level"): """\
configuration             cpu level  CPS [kHz]    CPI  vs cycle
---------------------------------------------------------------
native_types                  cycle     60.000   2.00         -
native_types                quantum     32.723   3.00     0.55x
suppress_main_memory          cycle     46.763   4.00         -
suppress_main_memory        quantum     29.348   5.00     0.63x
reduced_scheduling_2          cycle     39.326   6.00         -
reduced_scheduling_2        quantum     57.540   2.00     1.46x
kernel_function_capture       cycle     34.562   3.00         -
kernel_function_capture     quantum     46.970   4.00     1.36x""",
    ("engine_bench", "engine"): """\
configuration              engine  CPS [kHz]  vs generic
--------------------------------------------------------
rtl_hdl                   generic     60.000           -
rtl_hdl                   clocked     32.723       0.55x
initial_trace             generic     46.763           -
initial_trace             clocked     29.348       0.63x
initial                   generic     39.326           -
initial                   clocked     57.540       1.46x
native_types              generic     34.562           -
native_types              clocked     46.970       1.36x
threads_to_methods        generic     70.796           -
threads_to_methods        clocked     40.441       0.57x
reduced_port_reading      generic     55.921           -
reduced_port_reading      clocked     87.500       1.56x
reduced_scheduling        generic     47.120           -
reduced_scheduling        clocked     66.547       1.41x
suppress_instruction_memory  generic     41.304           -
suppress_instruction_memory  clocked     54.775       1.33x
suppress_main_memory      generic     79.365           -
suppress_main_memory      clocked     47.235       0.60x
reduced_scheduling_2      generic     63.636           -
reduced_scheduling_2      clocked     95.133       1.49x
kernel_function_capture   generic     53.922           -
kernel_function_capture   clocked     74.013       1.37x""",
    ("engine_bench", "bus_level"): "",
    ("engine_bench", "cpu_level"): "",
    ("full", "engine"): """\
configuration              engine  CPS [kHz]  vs generic
--------------------------------------------------------
rtl_hdl                   generic     60.000           -
rtl_hdl                   clocked     32.723       0.55x
initial                   generic     46.763           -
initial                   clocked     70.796       1.51x
kernel_function_capture   generic     41.304           -
kernel_function_capture   clocked     53.922       1.31x""",
    ("full", "bus_level"): """\
configuration               bus level  CPS [kHz]    CPI  procs  vs signal
-------------------------------------------------------------------------
rtl_hdl                        signal     60.000   2.00      6          -
rtl_hdl                        signal     32.723   3.00      7          -
initial                        signal     46.763   4.00      8          -
initial                   transaction     39.326   6.00     10      0.84x
initial                    functional     34.562   3.00     12      0.74x
initial                        signal     70.796   5.00     14          -
initial                   transaction     55.921   2.00     16      0.79x
initial                    functional     47.120   4.00      6      0.67x
kernel_function_capture        signal     41.304   6.00      8          -
kernel_function_capture   transaction     79.365   3.00     10      1.92x
kernel_function_capture    functional     63.636   5.00     12      1.54x
kernel_function_capture        signal     53.922   2.00     14          -
kernel_function_capture   transaction    115.000   4.00     16      2.13x
kernel_function_capture    functional     86.331   6.00      6      1.60x""",
    ("full", "cpu_level"): """\
configuration             cpu level  CPS [kHz]    CPI  vs cycle
---------------------------------------------------------------
rtl_hdl                       cycle     60.000   2.00         -
rtl_hdl                       cycle     32.723   3.00         -
initial                       cycle     46.763   4.00         -
initial                     quantum     29.348   5.00     0.63x
initial                       cycle     39.326   6.00         -
initial                     quantum     57.540   2.00     1.46x
initial                       cycle     34.562   3.00         -
initial                     quantum     46.970   4.00     1.36x
initial                       cycle     70.796   5.00         -
initial                     quantum     40.441   6.00     0.57x
initial                       cycle     55.921   2.00         -
initial                     quantum     87.500   3.00     1.56x
initial                       cycle     47.120   4.00         -
initial                     quantum     66.547   5.00     1.41x
kernel_function_capture       cycle     41.304   6.00         -
kernel_function_capture     quantum     54.775   2.00     1.33x
kernel_function_capture       cycle     79.365   3.00         -
kernel_function_capture     quantum     47.235   4.00     0.60x
kernel_function_capture       cycle     63.636   5.00         -
kernel_function_capture     quantum     95.133   6.00     1.49x
kernel_function_capture       cycle     53.922   2.00         -
kernel_function_capture     quantum     74.013   3.00     1.37x
kernel_function_capture       cycle    115.000   4.00         -
kernel_function_capture     quantum     61.518   5.00     0.53x
kernel_function_capture       cycle     86.331   6.00         -
kernel_function_capture     quantum     53.261   2.00     0.62x""",
}

GOLDEN_BEST = {
    "bus_bench": {
        ("engine", "clocked"): 0.0,
        ("bus_level", "transaction"): 1.382775119617225,
        ("bus_level", "functional"): 2.163636363636364,
        ("cpu_level", "quantum"): 0.0,
    },
    "cpu_bench": {
        ("engine", "clocked"): 0.0,
        ("bus_level", "transaction"): 0.0,
        ("bus_level", "functional"): 0.0,
        ("cpu_level", "quantum"): 1.4631519274376414,
    },
    "engine_bench": {
        ("engine", "clocked"): 1.5647058823529412,
        ("bus_level", "transaction"): 0.0,
        ("bus_level", "functional"): 0.0,
        ("cpu_level", "quantum"): 0.0,
    },
    "full": {
        ("engine", "clocked"): 1.5139550714771957,
        ("bus_level", "transaction"): 2.132727272727273,
        ("bus_level", "functional"): 1.6010464355788097,
        ("cpu_level", "quantum"): 1.5647058823529412,
    },
}


@pytest.mark.parametrize("cell_set", sorted(CELL_SETS))
@pytest.mark.parametrize("seam", SEAMS)
def test_seam_table_matches_golden(cell_set, seam):
    report = build_report(fixed_results(CELL_SETS[cell_set]))
    assert report.format_seam_table(seam) == GOLDEN_TABLES[cell_set, seam]


@pytest.mark.parametrize("cell_set", sorted(CELL_SETS))
def test_best_speedups_match_golden(cell_set):
    report = build_report(fixed_results(CELL_SETS[cell_set]))
    assert {pair: report.best_speedup(*pair) for pair in BEST_PAIRS} \
        == GOLDEN_BEST[cell_set]


def test_engine_ratio_needs_the_cell_differing_only_in_engine():
    """No generic signal/cycle cell: the clocked row has no reference.

    A generic row at another bus and cpu level is not a reference for a
    signal/cycle row; the table prints ``-`` and the best speed-up skips
    the pair (``--cells native_types/generic/functional/quantum,
    native_types/clocked/signal/cycle`` reaches this report).
    """
    report = build_report([
        fixed_result(VariantName.NATIVE_TYPES, ENGINE_GENERIC,
                     BUS_FUNCTIONAL, CPU_QUANTUM, cycles=100_000,
                     wall_seconds=0.1),
        fixed_result(VariantName.NATIVE_TYPES, ENGINE_CLOCKED, BUS_SIGNAL,
                     CPU_CYCLE, cycles=10_000, wall_seconds=0.1)])
    assert report.format_seam_table("engine") == """\
configuration              engine  CPS [kHz]  vs generic
--------------------------------------------------------
native_types              clocked    100.000           -"""
    assert report.best_speedup("engine", ENGINE_CLOCKED) == 0.0


def test_bus_ratio_needs_the_cell_differing_only_in_bus_level():
    """A signal/quantum row is not the reference of a functional/cycle
    row."""
    report = build_report([
        fixed_result(VariantName.NATIVE_TYPES, ENGINE_GENERIC, BUS_SIGNAL,
                     CPU_QUANTUM, cycles=100_000, wall_seconds=0.1),
        fixed_result(VariantName.NATIVE_TYPES, ENGINE_GENERIC,
                     BUS_FUNCTIONAL, CPU_CYCLE, cycles=10_000,
                     wall_seconds=0.1)])
    assert report.format_seam_table("bus_level") == """\
configuration               bus level  CPS [kHz]    CPI  procs  vs signal
-------------------------------------------------------------------------
native_types               functional    100.000   2.00      6          -"""
    assert report.best_speedup("bus_level", BUS_FUNCTIONAL) == 0.0

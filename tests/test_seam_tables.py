"""Golden renderings of the seam comparison tables.

A *seam* is one of the three execution choices a Figure 2 variant runs
under: engine, bus level and cpu level.  ``Figure2Report`` renders one
comparison table per seam and reports each seam's best speed-up.  These
tests need no timing: every result carries a fixed ``SpeedMeasurement``
round, so the tables and ratios are exact.  The cell sets are the full
12-combo matrix (two variants plus the RTL baseline) and the three slices
the benchmarks measure (``benchmarks/test_bench_fig2_summary.py``,
``test_bench_bus_levels.py`` and ``test_bench_cpu_levels.py``), plus the
sparse report of two cells that are not the variant's bar.
"""

import pytest

from repro.bus import BUS_FUNCTIONAL, BUS_SIGNAL, BUS_TRANSACTION
from repro.core import (SpeedMeasurement, VariantResult, build_report,
                        expand_matrix)
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
    """A result with one fixed measured round."""
    return VariantResult(variant,
                         SpeedMeasurement((cycles / wall_seconds,)),
                         cycles=cycles, instructions_retired=cycles // cpi,
                         process_count=processes, engine=engine,
                         bus_level=bus_level, cpu_level=cpu_level)


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
configuration              engine    bus level  cpu level  CPS [kHz]    CPI  procs  vs signal
---------------------------------------------------------------------------------------------
initial                   generic       signal      cycle     60.000   2.00      6          -
initial                   generic  transaction      cycle     32.723   3.00      7      0.55x
initial                   generic   functional      cycle     46.763   4.00      8      0.78x
native_types              generic       signal      cycle     29.348   5.00      9          -
native_types              generic  transaction      cycle     39.326   6.00     10      1.34x
native_types              generic   functional      cycle     57.540   2.00     11      1.96x
reduced_scheduling        generic       signal      cycle     34.562   3.00     12          -
reduced_scheduling        generic  transaction      cycle     46.970   4.00     13      1.36x
reduced_scheduling        generic   functional      cycle     70.796   5.00     14      2.05x
kernel_function_capture   generic       signal      cycle     40.441   6.00     15          -
kernel_function_capture   generic  transaction      cycle     55.921   2.00     16      1.38x
kernel_function_capture   generic   functional      cycle     87.500   3.00     17      2.16x""",
    ("bus_bench", "cpu_level"): "",
    ("cpu_bench", "engine"): "",
    ("cpu_bench", "bus_level"): "",
    ("cpu_bench", "cpu_level"): """\
configuration              engine    bus level  cpu level  CPS [kHz]    CPI  vs cycle
-------------------------------------------------------------------------------------
native_types              generic   functional      cycle     60.000   2.00         -
native_types              generic   functional    quantum     32.723   3.00     0.55x
suppress_main_memory      generic   functional      cycle     46.763   4.00         -
suppress_main_memory      generic   functional    quantum     29.348   5.00     0.63x
reduced_scheduling_2      generic   functional      cycle     39.326   6.00         -
reduced_scheduling_2      generic   functional    quantum     57.540   2.00     1.46x
kernel_function_capture   generic   functional      cycle     34.562   3.00         -
kernel_function_capture   generic   functional    quantum     46.970   4.00     1.36x""",
    ("engine_bench", "engine"): """\
configuration              engine    bus level  cpu level  CPS [kHz]  vs generic
--------------------------------------------------------------------------------
rtl_hdl                   generic       signal      cycle     60.000           -
rtl_hdl                   clocked       signal      cycle     32.723       0.55x
initial_trace             generic       signal      cycle     46.763           -
initial_trace             clocked       signal      cycle     29.348       0.63x
initial                   generic       signal      cycle     39.326           -
initial                   clocked       signal      cycle     57.540       1.46x
native_types              generic       signal      cycle     34.562           -
native_types              clocked       signal      cycle     46.970       1.36x
threads_to_methods        generic       signal      cycle     70.796           -
threads_to_methods        clocked       signal      cycle     40.441       0.57x
reduced_port_reading      generic       signal      cycle     55.921           -
reduced_port_reading      clocked       signal      cycle     87.500       1.56x
reduced_scheduling        generic       signal      cycle     47.120           -
reduced_scheduling        clocked       signal      cycle     66.547       1.41x
suppress_instruction_memory  generic       signal      cycle     41.304           -
suppress_instruction_memory  clocked       signal      cycle     54.775       1.33x
suppress_main_memory      generic       signal      cycle     79.365           -
suppress_main_memory      clocked       signal      cycle     47.235       0.60x
reduced_scheduling_2      generic       signal      cycle     63.636           -
reduced_scheduling_2      clocked       signal      cycle     95.133       1.49x
kernel_function_capture   generic       signal      cycle     53.922           -
kernel_function_capture   clocked       signal      cycle     74.013       1.37x""",
    ("engine_bench", "bus_level"): "",
    ("engine_bench", "cpu_level"): "",
    ("full", "engine"): """\
configuration              engine    bus level  cpu level  CPS [kHz]  vs generic
--------------------------------------------------------------------------------
rtl_hdl                   generic       signal      cycle     60.000           -
rtl_hdl                   clocked       signal      cycle     32.723       0.55x
initial                   generic       signal      cycle     46.763           -
initial                   clocked       signal      cycle     70.796       1.51x
kernel_function_capture   generic       signal      cycle     41.304           -
kernel_function_capture   clocked       signal      cycle     53.922       1.31x""",
    ("full", "bus_level"): """\
configuration              engine    bus level  cpu level  CPS [kHz]    CPI  procs  vs signal
---------------------------------------------------------------------------------------------
rtl_hdl                   generic       signal      cycle     60.000   2.00      6          -
rtl_hdl                   clocked       signal      cycle     32.723   3.00      7          -
initial                   generic       signal      cycle     46.763   4.00      8          -
initial                   generic  transaction      cycle     39.326   6.00     10      0.84x
initial                   generic   functional      cycle     34.562   3.00     12      0.74x
initial                   clocked       signal      cycle     70.796   5.00     14          -
initial                   clocked  transaction      cycle     55.921   2.00     16      0.79x
initial                   clocked   functional      cycle     47.120   4.00      6      0.67x
kernel_function_capture   generic       signal      cycle     41.304   6.00      8          -
kernel_function_capture   generic  transaction      cycle     79.365   3.00     10      1.92x
kernel_function_capture   generic   functional      cycle     63.636   5.00     12      1.54x
kernel_function_capture   clocked       signal      cycle     53.922   2.00     14          -
kernel_function_capture   clocked  transaction      cycle    115.000   4.00     16      2.13x
kernel_function_capture   clocked   functional      cycle     86.331   6.00      6      1.60x""",
    ("full", "cpu_level"): """\
configuration              engine    bus level  cpu level  CPS [kHz]    CPI  vs cycle
-------------------------------------------------------------------------------------
rtl_hdl                   generic       signal      cycle     60.000   2.00         -
rtl_hdl                   clocked       signal      cycle     32.723   3.00         -
initial                   generic       signal      cycle     46.763   4.00         -
initial                   generic       signal    quantum     29.348   5.00     0.63x
initial                   generic  transaction      cycle     39.326   6.00         -
initial                   generic  transaction    quantum     57.540   2.00     1.46x
initial                   generic   functional      cycle     34.562   3.00         -
initial                   generic   functional    quantum     46.970   4.00     1.36x
initial                   clocked       signal      cycle     70.796   5.00         -
initial                   clocked       signal    quantum     40.441   6.00     0.57x
initial                   clocked  transaction      cycle     55.921   2.00         -
initial                   clocked  transaction    quantum     87.500   3.00     1.56x
initial                   clocked   functional      cycle     47.120   4.00         -
initial                   clocked   functional    quantum     66.547   5.00     1.41x
kernel_function_capture   generic       signal      cycle     41.304   6.00         -
kernel_function_capture   generic       signal    quantum     54.775   2.00     1.33x
kernel_function_capture   generic  transaction      cycle     79.365   3.00         -
kernel_function_capture   generic  transaction    quantum     47.235   4.00     0.60x
kernel_function_capture   generic   functional      cycle     63.636   5.00         -
kernel_function_capture   generic   functional    quantum     95.133   6.00     1.49x
kernel_function_capture   clocked       signal      cycle     53.922   2.00         -
kernel_function_capture   clocked       signal    quantum     74.013   3.00     1.37x
kernel_function_capture   clocked  transaction      cycle    115.000   4.00         -
kernel_function_capture   clocked  transaction    quantum     61.518   5.00     0.53x
kernel_function_capture   clocked   functional      cycle     86.331   6.00         -
kernel_function_capture   clocked   functional    quantum     53.261   2.00     0.62x""",
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


def sparse_report():
    """The report ``examples/figure2_sweep.py --cells
    native_types/generic/functional/quantum,native_types/clocked/signal/cycle``
    builds: two native-types cells, neither of them the bar
    (generic/signal/cycle)."""
    return build_report([
        fixed_result(VariantName.NATIVE_TYPES, ENGINE_GENERIC,
                     BUS_FUNCTIONAL, CPU_QUANTUM, cycles=100_000,
                     wall_seconds=0.1),
        fixed_result(VariantName.NATIVE_TYPES, ENGINE_CLOCKED, BUS_SIGNAL,
                     CPU_CYCLE, cycles=10_000, wall_seconds=0.1)])


def test_engine_ratio_needs_the_cell_differing_only_in_engine():
    """No generic signal/cycle cell: the clocked row has no reference.

    A generic row at another bus and cpu level is not a reference for a
    signal/cycle row; the table prints ``-`` and the best speed-up skips
    the pair.
    """
    report = sparse_report()
    assert report.format_seam_table("engine") == """\
configuration              engine    bus level  cpu level  CPS [kHz]  vs generic
--------------------------------------------------------------------------------
native_types              clocked       signal      cycle    100.000           -"""
    assert report.best_speedup("engine", ENGINE_CLOCKED) == 0.0


def test_unmeasured_bar_prints_a_dash():
    """The headline table prints ``-`` for a bar whose cell was not
    measured, never another cell of the variant; every seam table prints
    each row's full cell; no claim or shape check reads the absent bar."""
    report = sparse_report()
    with pytest.raises(KeyError):
        report.result_for(VariantName.NATIVE_TYPES)
    lines = report.format_table().splitlines()
    assert len(lines) == 3
    assert lines[0] == ("configuration             CPS [kHz]     eff.    CPI"
                        "   boot (proj.)  paper CPS     paper boot")
    assert lines[1] == "-" * 92
    assert lines[2] == ("Native C datatypes                -        -      -"
                        "              -    141.700          1h14m")
    lines = report.format_seam_table("cpu_level").splitlines()
    assert len(lines) == 4
    assert lines[0] == ("configuration              engine    bus level"
                        "  cpu level  CPS [kHz]    CPI  vs cycle")
    assert lines[2] == ("native_types              generic   functional"
                        "    quantum   1000.000   2.00         -")
    assert lines[3] == ("native_types              clocked       signal"
                        "      cycle    100.000   2.00         -")
    assert report.summary_lines() == []
    assert report.shape_checks() == {}


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
configuration              engine    bus level  cpu level  CPS [kHz]    CPI  procs  vs signal
---------------------------------------------------------------------------------------------
native_types              generic   functional      cycle    100.000   2.00      6          -"""
    assert report.best_speedup("bus_level", BUS_FUNCTIONAL) == 0.0

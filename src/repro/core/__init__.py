"""The paper's contribution: the modelling-style evaluation harness."""

from .experiment import (ClusterResult, ExperimentOptions, Figure2Experiment,
                         VariantResult, build_ping_cluster,
                         format_cluster_table)
from .figure2 import Figure2Report, build_report
from .metrics import (REFERENCE_BOOT_INSTRUCTIONS, SpeedMeasurement,
                      cycles_per_second, format_duration, measure, speedup,
                      to_khz)
from .sweep import (SweepCell, SweepReport, cell_sort_key, expand_matrix,
                    load_fig2_results, merge_fig2_results,
                    record_bench_history, record_fig2_results,
                    result_sort_key, run_matrix_sweep, write_fig2_results)

__all__ = [
    "ClusterResult",
    "format_cluster_table",
    "ExperimentOptions",
    "Figure2Experiment",
    "Figure2Report",
    "REFERENCE_BOOT_INSTRUCTIONS",
    "SpeedMeasurement",
    "SweepCell",
    "SweepReport",
    "VariantResult",
    "build_ping_cluster",
    "build_report",
    "cell_sort_key",
    "expand_matrix",
    "load_fig2_results",
    "measure",
    "merge_fig2_results",
    "record_bench_history",
    "record_fig2_results",
    "result_sort_key",
    "run_matrix_sweep",
    "write_fig2_results",
    "cycles_per_second",
    "format_duration",
    "speedup",
    "to_khz",
]

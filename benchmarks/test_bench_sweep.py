"""Sweep-runner benchmarks: parallel speed-up and determinism gates.

The parallel sweep runner's contract is twofold:

* **Throughput** -- spreading the Figure 2 matrix over worker processes
  with warm-start snapshots must yield a real wall-clock win (gated at
  >= 4x on 8 cores);
* **Determinism** -- the jobs count is a pure throughput knob: any jobs
  value produces bit-identical per-cell architectural results in the
  same canonical order, and a failed or timed-out cell surfaces as an
  explicit ``error`` entry in the merged benchmark document rather than
  a silently missing key.
"""

import os

import pytest

from repro.bus import BUS_FUNCTIONAL, BUS_SIGNAL
from repro.core import ExperimentOptions, run_matrix_sweep
from repro.core.sweep import merge_fig2_results
from repro.iss import CPU_CYCLE
from repro.kernel import ENGINE_CLOCKED, ENGINE_GENERIC
from repro.platform import VariantName

#: Measurement options shared by the determinism benchmarks: enough work
#: per cell for the runs to be representative, small enough to finish in
#: seconds per cell (the RTL model runs at about 0.15 kHz).
OPTIONS = ExperimentOptions(instructions_per_phase=150, phases=2,
                            rtl_cycles_per_phase=100, boot_scale=0.4,
                            warmup_instructions=150)


def architectural_fingerprint(result) -> dict:
    """Everything about a cell that must not depend on the jobs count.

    Timed quantities (CPS) legitimately vary run to run;
    simulated cycles, retired instructions, console bytes and kernel work
    counters must not.
    """
    return {
        "variant": result.variant.value,
        "engine": result.engine,
        "bus_level": result.bus_level,
        "cpu_level": result.cpu_level,
        "console": result.console_excerpt,
        "process_count": result.process_count,
        "kernel_counters": result.kernel_counters,
        "windows": (result.cycles, result.instructions_retired,
                    result.instructions_effective, result.speed.rounds),
    }


def run_sweep(jobs: int, **kwargs):
    report = run_matrix_sweep(options=OPTIONS, jobs=jobs, **kwargs)
    report.raise_on_errors()
    return report


class TestParallelSpeedup:
    def test_eight_jobs_at_least_4x_faster_than_serial(self):
        """The ISSUE's headline gate: >= 4x on 8 cores, identical results."""
        if (os.cpu_count() or 1) < 8:
            pytest.skip("parallel speed-up gate needs >= 8 CPU cores")
        matrix = dict(
            variants=[VariantName.INITIAL, VariantName.NATIVE_TYPES,
                      VariantName.THREADS_TO_METHODS,
                      VariantName.REDUCED_SCHEDULING],
            engines=[ENGINE_GENERIC, ENGINE_CLOCKED],
            bus_levels=[BUS_SIGNAL, BUS_FUNCTIONAL],
            cpu_levels=[CPU_CYCLE])
        serial = run_sweep(jobs=1, **matrix)
        parallel = run_sweep(jobs=8, **matrix)

        assert [architectural_fingerprint(r) for r in parallel.results] \
            == [architectural_fingerprint(r) for r in serial.results]
        speedup = serial.elapsed_seconds / max(parallel.elapsed_seconds,
                                               1e-9)
        assert speedup >= 4.0, (
            f"sweep speed-up {speedup:.2f}x below the 4x gate "
            f"(serial {serial.elapsed_seconds:.1f}s, "
            f"8 jobs {parallel.elapsed_seconds:.1f}s)")


class TestJobsCountDeterminism:
    def test_results_bit_identical_across_jobs_counts(self):
        matrix = dict(
            variants=[VariantName.RTL_HDL, VariantName.INITIAL,
                      VariantName.NATIVE_TYPES],
            engines=[ENGINE_GENERIC, ENGINE_CLOCKED],
            bus_levels=[BUS_SIGNAL], cpu_levels=[CPU_CYCLE])
        serial = run_sweep(jobs=1, **matrix)
        parallel = run_sweep(jobs=2, **matrix)
        assert [architectural_fingerprint(r) for r in parallel.results] \
            == [architectural_fingerprint(r) for r in serial.results]

    def test_snapshot_warm_start_matches_serial_warmup(self):
        """Warm-starting from a snapshot is invisible in the results."""
        matrix = dict(variants=[VariantName.INITIAL],
                      engines=[ENGINE_GENERIC, ENGINE_CLOCKED],
                      bus_levels=[BUS_SIGNAL, BUS_FUNCTIONAL],
                      cpu_levels=[CPU_CYCLE])
        warm = run_sweep(jobs=1, use_snapshots=True, **matrix)
        cold = run_sweep(jobs=1, use_snapshots=False, **matrix)
        assert [architectural_fingerprint(r) for r in warm.results] \
            == [architectural_fingerprint(r) for r in cold.results]


class TestErrorHardening:
    def test_timed_out_cell_records_explicit_error_entry(self):
        """A failed cell becomes an ``error`` entry, not a missing key."""
        report = run_matrix_sweep(
            options=OPTIONS, variants=[VariantName.INITIAL],
            engines=[ENGINE_GENERIC], bus_levels=[BUS_SIGNAL],
            cpu_levels=[CPU_CYCLE], jobs=1, timeout_s=0.05,
            use_snapshots=False)
        assert report.results == []
        assert len(report.errors) == 1
        error = report.errors[0]
        assert error["variant"] == VariantName.INITIAL.value
        assert error["engine"] == ENGINE_GENERIC
        assert error["error"]
        with pytest.raises(RuntimeError):
            report.raise_on_errors()

        document = merge_fig2_results({}, [], errors=report.errors)
        key = f"{error['variant']}/{error['engine']}" \
              f"/{error['bus_level']}/{error['cpu_level']}"
        entry = document["entries"][key]
        assert "error" in entry
        assert "cps_khz" not in entry

    def test_merge_keeps_previous_good_entry_next_to_error(self):
        """An error entry does not clobber unrelated good entries."""
        good = {"entries": {"initial/generic/signal/cycle":
                            {"cps_khz": 1.0}}}
        document = merge_fig2_results(good, [], errors=[{
            "variant": "native_types", "engine": "generic",
            "bus_level": "signal", "cpu_level": "cycle",
            "error": "boom"}])
        assert document["entries"]["initial/generic/signal/cycle"] \
            ["cps_khz"] == 1.0
        assert document["entries"]["native_types/generic/signal/cycle"] \
            ["error"] == "boom"

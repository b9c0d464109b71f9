"""Tests of the evaluation harness: metrics, experiment, report."""

import signal
import threading
import time

import pytest
from hypothesis import given, strategies as st

from repro.core.sweep import _JobTimeout, _call_with_timeout
from repro.core import (ExperimentOptions, Figure2Experiment,
                        REFERENCE_BOOT_INSTRUCTIONS, SpeedMeasurement,
                        VariantResult, build_report, cycles_per_second,
                        format_duration, measure, speedup, to_khz)
from repro.platform import (PAPER_FIGURE2_CPS_KHZ, VariantName,
                            all_systemc_variants, variant_config)
from repro.signals import DataMode


class TestMetrics:
    def test_cycles_per_second(self):
        assert cycles_per_second(1000, 2.0) == 500.0
        assert cycles_per_second(1000, 0.0) == 0.0

    def test_to_khz(self):
        assert to_khz(61_000) == 61.0

    def test_speedup(self):
        assert speedup(1000, 10) == 100.0
        assert speedup(1000, 0) == float("inf")

    def test_format_duration_paper_style(self):
        assert format_duration(356) == "5m56s"
        assert format_duration(69 * 60) == "1h9m"
        assert format_duration(45 * 24 * 3600) == "1 month 15 days"
        assert format_duration(12) == "12s"

    def test_format_duration_rejects_negative(self):
        with pytest.raises(ValueError):
            format_duration(-1)

    @given(st.integers(min_value=1, max_value=10 ** 9),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_cps_positive(self, cycles, wall):
        assert cycles_per_second(cycles, wall) > 0


class TestSpeedMeasurement:
    def test_basic_properties(self):
        speed = SpeedMeasurement((40.0, 10.0, 30.0, 20.0))
        assert speed.rounds == 4
        assert speed.median == 25.0
        assert speed.quartiles == (17.5, 32.5)
        assert str(speed) == "median 25, IQR 17.5-32.5, 4 rounds"
        single = SpeedMeasurement((7.0,))
        assert (single.median, single.quartiles) == (7.0, (7.0, 7.0))

    def test_effective_cps_scales_with_interception(self):
        result = VariantResult(VariantName.KERNEL_FUNCTION_CAPTURE,
                               SpeedMeasurement((10_000.0,)), cycles=10_000,
                               instructions_retired=1_000,
                               instructions_effective=2_000)
        assert result.cps_khz == 10.0
        assert result.cpi == 10.0
        assert result.effective_cps_khz == pytest.approx(2 * result.cps_khz)

    def test_zero_instruction_window(self):
        result = VariantResult(VariantName.INITIAL,
                               SpeedMeasurement((1_000.0,)), cycles=100)
        assert result.cpi == 0.0
        assert result.effective_cps_khz == result.cps_khz

    def test_projected_boot_scales_with_cpi_and_cps(self):
        def result(cpi, cps, effective=1):
            return VariantResult(VariantName.INITIAL,
                                 SpeedMeasurement((cps,)),
                                 cycles=10_000 * cpi,
                                 instructions_retired=10_000,
                                 instructions_effective=10_000 * effective)
        reference = REFERENCE_BOOT_INSTRUCTIONS * 2.0 / 10_000 / 60
        assert result(2, 10_000).projected_boot_minutes \
            == pytest.approx(reference)
        assert result(4, 10_000).projected_boot_minutes \
            == pytest.approx(2 * reference)
        assert result(2, 20_000).projected_boot_minutes \
            == pytest.approx(reference / 2)
        # Captured instructions cost no cycles: half the boot is retired.
        assert result(2, 10_000, effective=2).projected_boot_minutes \
            == pytest.approx(reference / 2)
        assert result(2, 0.0).projected_boot_minutes == float("inf")


class _ScriptedClock:
    """A stand-in for ``time.process_time`` that windows advance."""

    def __init__(self):
        self.now = 0.0
        self.calls = []

    def __call__(self):
        return self.now

    def window(self, name, durations, cycles=60):
        """A window whose runs take ``durations`` (warm-up first)."""
        remaining = iter(durations)

        def run():
            self.calls.append(name)
            self.now += next(remaining)
            return cycles
        return run


class TestMeasure:
    @pytest.fixture
    def clock(self, monkeypatch):
        clock = _ScriptedClock()
        monkeypatch.setattr(time, "process_time", clock)
        return clock

    def test_warm_up_round_is_untimed(self, clock):
        speeds = measure({"a": clock.window("a", [1000.0, 6.0, 3.0]),
                          "b": clock.window("b", [0.001, 2.0, 2.0])}, 2)
        assert speeds["a"].values == (10.0, 20.0)
        assert speeds["b"].values == (30.0, 30.0)

    def test_windows_interleave_round_by_round(self, clock):
        measure({"a": clock.window("a", [1.0] * 3),
                 "b": clock.window("b", [1.0] * 3)}, 2)
        assert clock.calls == ["a", "b"] * 3

    def test_median_and_quartiles_are_exact(self, clock):
        speed = measure({"a": clock.window(
            "a", [1.0, 1.5, 6.0, 3.0, 2.0, 1.25])}, 5)["a"]
        assert speed.values == (40.0, 10.0, 20.0, 30.0, 48.0)
        assert speed.rounds == 5
        assert speed.median == 30.0
        assert speed.quartiles == (20.0, 40.0)

    def test_comparison_is_median_of_per_round_ratios(self, clock):
        speeds = measure({"a": clock.window("a", [1.0, 6.0, 3.0, 2.0]),
                          "b": clock.window("b", [1.0, 6.0, 1.5, 4.0])}, 3)
        assert speeds["a"].values == (10.0, 20.0, 30.0)
        assert speeds["b"].values == (10.0, 40.0, 15.0)
        ratio = speeds["a"].over(speeds["b"])
        assert ratio.values == (1.0, 0.5, 2.0)
        assert ratio.median == 1.0
        # Not the ratio of the medians, which pairs no two windows.
        assert speeds["a"].median / speeds["b"].median == 20.0 / 15.0

    def test_slow_round_is_never_replaced(self, clock):
        speed = measure({"a": clock.window(
            "a", [1.0, 1.0, 60.0, 1.0])}, 3)["a"]
        assert clock.calls == ["a"] * 4
        assert speed.values == (60.0, 1.0, 60.0)
        assert speed.median == 60.0
        assert speed.quartiles == (30.5, 60.0)

    def test_setup_runs_untimed_before_each_run(self, clock):
        def setup(key):
            clock.calls.append(f"setup {key}")
            clock.now += 100.0
        speed = measure({"a": clock.window("a", [1.0, 2.0])}, 1,
                        setup=setup)["a"]
        assert clock.calls == ["setup a", "a", "setup a", "a"]
        assert speed.values == (30.0,)

    def test_rejects_rounds_it_cannot_pair(self, clock):
        with pytest.raises(ValueError):
            measure({"a": clock.window("a", [1.0])}, 0)
        with pytest.raises(ValueError):
            SpeedMeasurement((1.0, 2.0)).over(SpeedMeasurement((1.0,)))


class TestVariantConfigs:
    def test_cycle_accuracy_classification_matches_config(self):
        for variant in all_systemc_variants():
            assert variant_config(variant).is_cycle_accurate \
                == variant.is_cycle_accurate

    def test_optimisations_accumulate_left_to_right(self):
        initial = variant_config(VariantName.INITIAL)
        native = variant_config(VariantName.NATIVE_TYPES)
        final = variant_config(VariantName.KERNEL_FUNCTION_CAPTURE)
        assert initial.data_mode is DataMode.RESOLVED
        assert native.data_mode is DataMode.NATIVE
        assert not native.use_methods
        assert final.use_methods
        assert final.suppress_instruction_memory
        assert final.suppress_main_memory
        assert final.gate_rare_peripherals
        assert final.kernel_function_capture

    def test_trace_only_on_traced_variant(self):
        assert variant_config(VariantName.INITIAL_TRACE).trace_enabled
        assert not variant_config(VariantName.INITIAL).trace_enabled

    def test_rtl_has_no_model_config(self):
        with pytest.raises(ValueError):
            variant_config(VariantName.RTL_HDL)

    def test_all_systemc_variants_excludes_rtl(self):
        variants = all_systemc_variants()
        assert VariantName.RTL_HDL not in variants
        assert len(variants) == 10

    def test_paper_reference_values_cover_all_variants(self):
        assert set(PAPER_FIGURE2_CPS_KHZ) == set(VariantName)

    def test_describe_mentions_active_options(self):
        final = variant_config(VariantName.KERNEL_FUNCTION_CAPTURE)
        description = final.describe()
        assert "memset/memcpy capture" in description
        assert "native data types" in description

    def test_figure2_labels(self):
        assert VariantName.RTL_HDL.figure2_label.startswith("RTL")
        assert "trace" in VariantName.INITIAL_TRACE.figure2_label


class TestExperimentHarness:
    @pytest.fixture(scope="class")
    def mini_report(self):
        options = ExperimentOptions(instructions_per_phase=150, phases=2,
                                    rtl_cycles_per_phase=100,
                                    boot_scale=0.1, chunk_cycles=200)
        experiment = Figure2Experiment(options)
        results = experiment.run([
            VariantName.RTL_HDL,
            VariantName.INITIAL,
            VariantName.NATIVE_TYPES,
            VariantName.SUPPRESS_MAIN_MEMORY,
            VariantName.KERNEL_FUNCTION_CAPTURE,
        ])
        return build_report(results)

    def test_measurements_recorded(self, mini_report):
        for result in mini_report.results:
            assert result.speed.rounds == 2
            assert all(rate > 0 for rate in result.speed.values)
            assert result.cycles > 0
            assert result.instructions_retired > 0

    def test_rtl_slower_than_any_systemc_model(self, mini_report):
        rtl_cps = mini_report.cps(VariantName.RTL_HDL)
        for variant in (VariantName.INITIAL, VariantName.NATIVE_TYPES,
                        VariantName.SUPPRESS_MAIN_MEMORY):
            assert mini_report.cps(variant) > rtl_cps

    def test_native_faster_than_resolved(self, mini_report):
        assert mini_report.cps(VariantName.NATIVE_TYPES) \
            > mini_report.cps(VariantName.INITIAL)

    def test_report_table_renders(self, mini_report):
        table = mini_report.format_table()
        assert "CPS [kHz]" in table
        assert "Initial model" in table
        assert len(table.splitlines()) >= 6

    def test_report_rows_contain_paper_reference(self, mini_report):
        rows = mini_report.to_rows()
        by_variant = {row["variant"]: row for row in rows}
        assert by_variant["initial"]["paper_cps_khz"] == 61.0

    def test_shape_checks_present_and_boolean(self, mini_report):
        checks = mini_report.shape_checks()
        assert checks, "at least one shape check must be applicable"
        assert all(isinstance(value, bool) for value in checks.values())

    def test_summary_lines(self, mini_report):
        lines = mini_report.summary_lines()
        assert any("RTL" in line for line in lines)

    def test_process_counts_recorded(self, mini_report):
        initial = mini_report.result_for(VariantName.INITIAL)
        rtl = mini_report.result_for(VariantName.RTL_HDL)
        assert rtl.process_count > initial.process_count


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                    reason="needs SIGALRM (POSIX)")
class TestJobWatchdog:
    """The sweep watchdog must leave the process signal state untouched."""

    def test_timeout_interrupts_the_job(self):
        with pytest.raises(_JobTimeout):
            _call_with_timeout(lambda: time.sleep(5.0), 0.05)

    def test_result_passes_through(self):
        assert _call_with_timeout(lambda: 42, 5.0) == 42
        assert _call_with_timeout(lambda: "no watchdog", None) \
            == "no watchdog"

    def test_restores_remaining_time_of_prior_itimer(self):
        fired = []
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: fired.append(1))
        try:
            signal.setitimer(signal.ITIMER_REAL, 30.0)
            assert _call_with_timeout(lambda: "ok", 0.5) == "ok"
            remaining, interval = signal.getitimer(signal.ITIMER_REAL)
            # The pre-existing timer is re-armed with its remaining time
            # (the buggy version cancelled it: remaining == 0).
            assert 0 < remaining <= 30.0
            assert interval == 0
            assert signal.getsignal(signal.SIGALRM) is not None
            assert not fired
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_off_main_thread_runs_unguarded(self):
        # signal.signal raises ValueError off the main thread; the
        # watchdog must degrade to a plain call instead.
        outcome = {}

        def run():
            try:
                outcome["result"] = _call_with_timeout(lambda: 7, 0.5)
            except Exception as error:   # pragma: no cover - the bug
                outcome["error"] = error

        worker = threading.Thread(target=run)
        worker.start()
        worker.join()
        assert outcome == {"result": 7}

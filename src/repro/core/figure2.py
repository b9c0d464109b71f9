"""Figure 2 assembly: tables, speed-up summaries and shape checks.

The paper's single results artefact is Figure 2: one bar (CPS in kHz) and
one line point (boot time) per model configuration.  This module turns a
list of :class:`~repro.core.experiment.VariantResult` objects into

* a text table with measured and paper values side by side,
* one comparison table per execution seam (engine, bus level, cpu
  level): each row's CPS over the cell that differs from it only in
  that seam,
* the summary claims of sections 4.6, 5.5 and 7 (speed-up ranges,
  percentage improvements), and
* a set of *shape checks*: predicates on per-round readings asserting
  that the measured results preserve the paper's qualitative findings
  (who wins, by roughly what factor, where the big steps are).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..bus.transport import BUS_SIGNAL
from ..iss.wrapper import CPU_CYCLE
from ..kernel.engine import ENGINE_GENERIC
from ..platform import (PAPER_FIGURE2_BOOT_MINUTES, PAPER_FIGURE2_CPS_KHZ,
                        VariantName)
from .experiment import VariantResult
from .metrics import SpeedMeasurement, format_duration


@dataclass(frozen=True)
class _SeamTable:
    """The layout of one execution seam's comparison table."""

    #: The level every other level's CPS is divided by.
    reference: str
    #: Title and width of the seam's column (every table prints all
    #: three, so each row shows its full cell).
    title: str
    width: int
    #: Columns between CPS and the ratio: (title, row formatter) pairs.
    extras: tuple[tuple[str, Callable[[VariantResult], str]], ...] = ()


_CPI = ("CPI", lambda result: f"{result.cpi:>6.2f}")
_PROCS = ("procs", lambda result: f"{result.process_count:>6}")


#: The execution seams keyed by ``ModelConfig`` field, in nesting order.
#: A seam's table holds only rows whose later seams sit at their
#: reference level, so the engine table never mixes bus or cpu levels and
#: the bus table never mixes cpu levels.
_SEAMS = {
    "engine": _SeamTable(ENGINE_GENERIC, "engine", 8),
    "bus_level": _SeamTable(BUS_SIGNAL, "bus level", 12, (_CPI, _PROCS)),
    "cpu_level": _SeamTable(CPU_CYCLE, "cpu level", 10, (_CPI,)),
}


@dataclass
class Figure2Report:
    """All variants' results plus derived summary quantities.

    A Figure 2 *bar* is a variant's cell at the paper's own configuration:
    generic engine, signal bus, cycle-level CPU.  Comparisons between two
    cells are the median of their per-round ratios, which pairs windows
    that ran next to each other when the cells were measured together
    (:meth:`~repro.core.experiment.Figure2Experiment.run`).
    """

    results: list[VariantResult]

    # -- access helpers -------------------------------------------------------
    def result_for(self, variant: VariantName,
                   engine: str = ENGINE_GENERIC,
                   bus_level: str = BUS_SIGNAL,
                   cpu_level: str = CPU_CYCLE) -> VariantResult:
        """The result of one cell (default: the variant's bar); raises
        ``KeyError`` when that cell was not measured."""
        cell = (variant, engine, bus_level, cpu_level)
        for result in self.results:
            if (result.variant, result.engine, result.bus_level,
                    result.cpu_level) == cell:
                return result
        raise KeyError(cell)

    def has(self, variant: VariantName,
            engine: str = ENGINE_GENERIC,
            bus_level: str = BUS_SIGNAL,
            cpu_level: str = CPU_CYCLE) -> bool:
        """True when the report contains the given cell."""
        try:
            self.result_for(variant, engine, bus_level, cpu_level)
        except KeyError:
            return False
        return True

    def cps(self, variant: VariantName,
            engine: str = ENGINE_GENERIC,
            bus_level: str = BUS_SIGNAL,
            cpu_level: str = CPU_CYCLE) -> float:
        """Measured CPS (Hz) of a cell, the median over its rounds."""
        return self.result_for(variant, engine, bus_level,
                               cpu_level).speed.median

    # -- comparisons between bars (paper sections 4.6 / 5.5 / 7) --------------
    def ratio(self, variant: VariantName,
              over: VariantName) -> SpeedMeasurement:
        """Per-round CPS ratios of ``variant``'s bar over ``over``'s."""
        return self.result_for(variant).speed.over(
            self.result_for(over).speed)

    def boot_time_ratio(self, variant: VariantName,
                        over: VariantName) -> SpeedMeasurement:
        """Per-round projected full-boot time of ``variant``'s bar over
        ``over``'s (below 1 when ``variant`` boots faster)."""
        result, base = self.result_for(variant), self.result_for(over)
        cycles = result.projected_boot_cycles / base.projected_boot_cycles
        return SpeedMeasurement(tuple(
            cycles / ratio if ratio > 0 else float("inf")
            for ratio in result.speed.over(base.speed).values))

    # -- seam comparisons (engine / bus level / cpu level ablations) ----------
    def levels_present(self, seam: str) -> list[str]:
        """Levels of ``seam`` (a ``ModelConfig`` field name) in the
        report, sorted by name."""
        return sorted({getattr(result, seam) for result in self.results})

    def _seam_rows(self, seam: str) -> list[VariantResult]:
        """The rows of ``seam``'s table: every result whose later seams
        sit at their reference level."""
        names = list(_SEAMS)
        later = names[names.index(seam) + 1:]
        return [result for result in self.results
                if all(getattr(result, name) == _SEAMS[name].reference
                       for name in later)]

    def _seam_speedup(self, result: VariantResult,
                      seam: str) -> Optional[float]:
        """Median per-round CPS ratio of ``result`` over the cell that
        differs from it only in ``seam``, where that cell is at ``seam``'s
        reference level; None when ``result`` is itself at the reference
        level or that cell was not measured."""
        cell = {name: getattr(result, name) for name in _SEAMS}
        if cell[seam] == _SEAMS[seam].reference:
            return None
        cell[seam] = _SEAMS[seam].reference
        try:
            base = self.result_for(result.variant, **cell)
        except KeyError:
            return None
        return result.speed.over(base.speed).median

    def format_seam_table(self, seam: str) -> str:
        """Text table comparing the levels of one seam per variant (empty
        when only one level was measured).  Every row prints its full
        cell: variant, engine, bus level and cpu level."""
        table = _SEAMS[seam]
        if len(self.levels_present(seam)) < 2:
            return ""
        ratio_title = f"vs {table.reference}"
        ratio_width = len(ratio_title) + 1
        header = (f"{'configuration':<24}"
                  + "".join(f" {column.title:>{column.width}}"
                            for column in _SEAMS.values())
                  + f" {'CPS [kHz]':>10}"
                  + "".join(f" {title:>6}" for title, _ in table.extras)
                  + f" {ratio_title:>{ratio_width}}")
        lines = [header, "-" * len(header)]
        for result in self._seam_rows(seam):
            speedup = self._seam_speedup(result, seam)
            speedup_text = f"{speedup:.2f}x" if speedup is not None else "-"
            lines.append(
                f"{result.variant.value:<24}"
                + "".join(f" {getattr(result, name):>{column.width}}"
                          for name, column in _SEAMS.items())
                + f" {result.cps_khz:>10.3f}"
                + "".join(f" {column(result)}"
                          for _, column in table.extras)
                + f" {speedup_text:>{ratio_width}}")
        return "\n".join(lines)

    def best_speedup(self, seam: str, level: str) -> float:
        """The largest ratio of ``level`` over the reference level that
        ``seam``'s table prints (0.0 when it prints none)."""
        ratios = [self._seam_speedup(result, seam)
                  for result in self._seam_rows(seam)
                  if getattr(result, seam) == level]
        return max((ratio for ratio in ratios if ratio is not None),
                   default=0.0)

    # -- shape checks --------------------------------------------------------------
    def _shape_readings(self) -> dict[str, tuple[SpeedMeasurement, bool]]:
        """The paper's qualitative claims, each with its per-round reading
        and whether the reading's median passes.

        A check is included only when both of its bars were measured.  The
        readings are ratios: CPS ratios, or projected boot-time ratios for
        the dispatcher and capture steps.
        """
        checks: dict[str, tuple[SpeedMeasurement, bool]] = {}

        def check(name, variant, over, passes, reading=self.ratio):
            if self.has(variant) and self.has(over):
                value = reading(variant, over)
                checks[name] = (value, passes(value.median))

        check("systemc_orders_of_magnitude_faster_than_rtl",
              VariantName.INITIAL, VariantName.RTL_HDL,
              lambda ratio: ratio > 10.0)
        # Direction check only: the paper's ~1.9x magnitude is not
        # expected here because the Python-hosted resolved-signal model
        # is disproportionately expensive relative to the tracer (see
        # EXPERIMENTS.md, deviations).
        check("tracing_slows_the_initial_model",
              VariantName.INITIAL, VariantName.INITIAL_TRACE,
              lambda ratio: ratio > 1.03)
        check("native_types_is_largest_cycle_accurate_gain",
              VariantName.NATIVE_TYPES, VariantName.INITIAL,
              lambda ratio: _percent(ratio) > 25.0)
        check("bars_4_to_6_are_small_refinements",
              VariantName.REDUCED_SCHEDULING, VariantName.NATIVE_TYPES,
              lambda ratio: -5.0 < _percent(ratio) < 60.0)
        check("instruction_suppression_improves_throughput",
              VariantName.SUPPRESS_INSTRUCTION_MEMORY,
              VariantName.REDUCED_SCHEDULING,
              lambda ratio: ratio < 1.0, self.boot_time_ratio)
        check("main_memory_suppression_improves_further",
              VariantName.SUPPRESS_MAIN_MEMORY,
              VariantName.SUPPRESS_INSTRUCTION_MEMORY,
              lambda ratio: ratio <= 1.05, self.boot_time_ratio)
        check("kernel_capture_roughly_halves_boot_time",
              VariantName.REDUCED_SCHEDULING_2,
              VariantName.KERNEL_FUNCTION_CAPTURE,
              lambda ratio: ratio > 1.3, self.boot_time_ratio)
        return checks

    def shape_checks(self) -> dict[str, bool]:
        """Whether each applicable shape check passes."""
        return {name: passed
                for name, (_, passed) in self._shape_readings().items()}

    def format_shape_checks(self) -> list[str]:
        """One line per applicable shape check: verdict and reading."""
        return [f"{name}: {'PASS' if passed else 'FAIL'} ({reading})"
                for name, (reading, passed) in self._shape_readings().items()]

    # -- rendering -------------------------------------------------------------------
    def to_rows(self) -> list[dict]:
        """One row per Figure 2 bar of a variant in the report: the paper's
        values, and the measured ones (None when the bar's cell was not
        measured)."""
        rows = []
        for variant in VariantName:
            if not any(result.variant is variant for result in self.results):
                continue
            result = self.result_for(variant) if self.has(variant) else None
            rows.append({
                "variant": variant.value,
                "label": variant.figure2_label,
                "measured_cps_khz": result and result.cps_khz,
                "measured_effective_cps_khz":
                    result and result.effective_cps_khz,
                "measured_cpi": result and result.cpi,
                "projected_boot": result and format_duration(
                    result.projected_boot_minutes * 60.0),
                "paper_cps_khz": PAPER_FIGURE2_CPS_KHZ[variant],
                "paper_boot": format_duration(
                    PAPER_FIGURE2_BOOT_MINUTES[variant] * 60.0),
                "processes": result and result.process_count,
            })
        return rows

    def format_table(self) -> str:
        """A text rendering of the Figure 2 reproduction, one line per bar;
        ``-`` marks a bar whose cell was not measured."""
        header = (f"{'configuration':<24} {'CPS [kHz]':>10} {'eff.':>8} "
                  f"{'CPI':>6} {'boot (proj.)':>14} "
                  f"{'paper CPS':>10} {'paper boot':>14}")
        lines = [header, "-" * len(header)]
        for row in self.to_rows():
            cps, effective, cpi, boot = ("-",) * 4 \
                if row["measured_cps_khz"] is None else (
                    f"{row['measured_cps_khz']:.3f}",
                    f"{row['measured_effective_cps_khz']:.3f}",
                    f"{row['measured_cpi']:.2f}", row["projected_boot"])
            lines.append(
                f"{row['label']:<24} {cps:>10} {effective:>8} {cpi:>6} "
                f"{boot:>14} {row['paper_cps_khz']:>10.3f} "
                f"{row['paper_boot']:>14}")
        return "\n".join(lines)

    def summary_lines(self) -> list[str]:
        """The headline claims, measured (sections 4.6, 5.5, 7); a claim
        whose bars were not both measured is left out."""
        lines = []
        rtl, initial = VariantName.RTL_HDL, VariantName.INITIAL
        capture = VariantName.KERNEL_FUNCTION_CAPTURE
        if self.has(rtl) and self.has(initial):
            lines.append(f"initial SystemC model vs RTL HDL: "
                         f"{self.ratio(initial, rtl).median:.0f}x")
        if self.has(rtl) and self.has(capture):
            lines.append(f"fastest non-cycle-accurate model vs RTL HDL: "
                         f"{self.ratio(capture, rtl).median:.0f}x")
        if self.has(initial) and self.has(VariantName.NATIVE_TYPES):
            improvement = _percent(
                self.ratio(VariantName.NATIVE_TYPES, initial).median)
            lines.append(f"native data types vs initial model: "
                         f"+{improvement:.0f}%")
        if self.has(VariantName.REDUCED_SCHEDULING_2) and self.has(capture):
            speedup = self.boot_time_ratio(
                VariantName.REDUCED_SCHEDULING_2, capture).median
            lines.append(f"kernel-function capture boot-time speedup: "
                         f"{speedup:.2f}x")
        return lines


def _percent(ratio: float) -> float:
    """A CPS ratio as a percentage improvement."""
    return (ratio - 1.0) * 100.0


def build_report(results: Iterable[VariantResult]) -> Figure2Report:
    """Convenience constructor.

    Rows are sorted into canonical matrix order (variant-major, then
    engine, bus level, cpu level) so every rendered table -- and
    therefore every ``figure2_*_comparison.txt`` artifact -- is
    byte-identical regardless of the order the measurements completed
    in (serial run, parallel sweep, or any mix of the two).
    """
    from .sweep import result_sort_key
    return Figure2Report(sorted(results, key=result_sort_key))

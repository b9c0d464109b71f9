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
* a set of *shape checks*: boolean predicates asserting that the measured
  results preserve the paper's qualitative findings (who wins, by roughly
  what factor, where the big steps are).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..bus.transport import BUS_SIGNAL
from ..iss.wrapper import CPU_CYCLE
from ..kernel.engine import ENGINE_GENERIC
from ..platform import VariantName
from .experiment import VariantResult
from .metrics import format_duration


@dataclass(frozen=True)
class _SeamTable:
    """The layout of one execution seam's comparison table."""

    #: The level every other level's CPS is divided by.
    reference: str
    #: Title and width of the level column.
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
    """All variants' results plus derived summary quantities."""

    results: list[VariantResult]

    # -- access helpers -------------------------------------------------------
    def result_for(self, variant: VariantName,
                   engine: Optional[str] = None,
                   bus_level: Optional[str] = None,
                   cpu_level: Optional[str] = None) -> VariantResult:
        """The result of one variant; raises ``KeyError`` when absent.

        Without ``engine`` the generic-engine row is preferred (the paper's
        own figure is a generic-engine measurement); without ``bus_level``
        the signal-level row is preferred and without ``cpu_level`` the
        cycle-level row, for the same reason.  When no preferred row
        exists, whichever matching row is present is returned.
        """
        fallback = None
        for result in self.results:
            if result.variant is not variant:
                continue
            if engine is not None and result.engine != engine:
                continue
            if bus_level is not None and result.bus_level != bus_level:
                continue
            if cpu_level is not None and result.cpu_level != cpu_level:
                continue
            preferred = (engine is not None
                         or result.engine == ENGINE_GENERIC) \
                and (bus_level is not None
                     or result.bus_level == BUS_SIGNAL) \
                and (cpu_level is not None
                     or result.cpu_level == CPU_CYCLE)
            if preferred:
                return result
            if fallback is None:
                fallback = result
        if fallback is not None:
            return fallback
        raise KeyError((variant, engine, bus_level, cpu_level))

    def has(self, variant: VariantName,
            engine: Optional[str] = None,
            bus_level: Optional[str] = None,
            cpu_level: Optional[str] = None) -> bool:
        """True when the report contains the given variant row."""
        return any(result.variant is variant
                   and (engine is None or result.engine == engine)
                   and (bus_level is None or result.bus_level == bus_level)
                   and (cpu_level is None or result.cpu_level == cpu_level)
                   for result in self.results)

    def cps(self, variant: VariantName,
            engine: Optional[str] = None,
            bus_level: Optional[str] = None,
            cpu_level: Optional[str] = None) -> float:
        """Measured CPS (Hz) of a variant."""
        return self.result_for(variant, engine, bus_level,
                               cpu_level).speed.mean_cps

    # -- summary quantities (paper sections 4.6 / 5.5 / 7) ----------------------
    def speedup_over_rtl(self, variant: VariantName) -> float:
        """Measured speed-up of ``variant`` over the RTL HDL baseline."""
        rtl = self.cps(VariantName.RTL_HDL)
        if rtl <= 0:
            return float("inf")
        return self.cps(variant) / rtl

    def improvement_percent(self, variant: VariantName,
                            over: VariantName) -> float:
        """Percentage CPS improvement of one variant over another."""
        base = self.cps(over)
        if base <= 0:
            return float("inf")
        return (self.cps(variant) / base - 1.0) * 100.0

    def native_types_improvement(self) -> float:
        """Section 4.2: native data types versus the initial model (paper:
        +132 %)."""
        return self.improvement_percent(VariantName.NATIVE_TYPES,
                                        VariantName.INITIAL)

    def small_optimisations_improvement(self) -> float:
        """Section 4.6: bars 4-6 combined over native types (paper: 7.6 %)."""
        return self.improvement_percent(VariantName.REDUCED_SCHEDULING,
                                        VariantName.NATIVE_TYPES)

    def trace_slowdown(self) -> float:
        """Tracing cost: untraced initial model CPS / traced CPS (paper ~1.9x)."""
        traced = self.cps(VariantName.INITIAL_TRACE)
        if traced <= 0:
            return float("inf")
        return self.cps(VariantName.INITIAL) / traced

    def capture_boot_speedup(self) -> float:
        """Section 5.4: boot-time ratio of bar 9 to bar 10 (paper ~2x)."""
        before = self.result_for(VariantName.REDUCED_SCHEDULING_2)
        after = self.result_for(VariantName.KERNEL_FUNCTION_CAPTURE)
        after_minutes = after.projected_boot_minutes
        if after_minutes <= 0:
            return float("inf")
        return before.projected_boot_minutes / after_minutes

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
        """CPS ratio of ``result`` over the cell that differs from it only
        in ``seam``, where that cell is at ``seam``'s reference level;
        None when ``result`` is itself at the reference level or that
        cell was not measured."""
        cell = {name: getattr(result, name) for name in _SEAMS}
        if cell[seam] == _SEAMS[seam].reference:
            return None
        cell[seam] = _SEAMS[seam].reference
        try:
            base = self.cps(result.variant, **cell)
        except KeyError:
            return None
        if base <= 0:
            return float("inf")
        return result.speed.mean_cps / base

    def format_seam_table(self, seam: str) -> str:
        """Text table comparing the levels of one seam per variant (empty
        when only one level was measured)."""
        table = _SEAMS[seam]
        if len(self.levels_present(seam)) < 2:
            return ""
        ratio_title = f"vs {table.reference}"
        ratio_width = len(ratio_title) + 1
        header = (f"{'configuration':<24} {table.title:>{table.width}} "
                  f"{'CPS [kHz]':>10}"
                  + "".join(f" {title:>6}" for title, _ in table.extras)
                  + f" {ratio_title:>{ratio_width}}")
        lines = [header, "-" * len(header)]
        for result in self._seam_rows(seam):
            speedup = self._seam_speedup(result, seam)
            speedup_text = f"{speedup:.2f}x" if speedup is not None else "-"
            lines.append(
                f"{result.variant.value:<24} "
                f"{getattr(result, seam):>{table.width}} "
                f"{result.cps_khz:>10.3f}"
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
    def shape_checks(self) -> dict[str, bool]:
        """Qualitative claims of the paper, evaluated on measured data.

        Only checks whose variants are present in the report are included.
        """
        checks: dict[str, bool] = {}
        have = self.has

        if have(VariantName.RTL_HDL) and have(VariantName.INITIAL):
            checks["systemc_orders_of_magnitude_faster_than_rtl"] = \
                self.speedup_over_rtl(VariantName.INITIAL) > 10.0
        if have(VariantName.INITIAL) and have(VariantName.INITIAL_TRACE):
            # Direction check only: the paper's ~1.9x magnitude is not
            # expected here because the Python-hosted resolved-signal model
            # is disproportionately expensive relative to the tracer (see
            # EXPERIMENTS.md, deviations).
            checks["tracing_slows_the_initial_model"] = \
                self.trace_slowdown() > 1.03
        if have(VariantName.INITIAL) and have(VariantName.NATIVE_TYPES):
            checks["native_types_is_largest_cycle_accurate_gain"] = \
                self.native_types_improvement() > 25.0
        if have(VariantName.NATIVE_TYPES) \
                and have(VariantName.REDUCED_SCHEDULING):
            improvement = self.small_optimisations_improvement()
            checks["bars_4_to_6_are_small_refinements"] = \
                -5.0 < improvement < 60.0
        if have(VariantName.REDUCED_SCHEDULING) \
                and have(VariantName.SUPPRESS_INSTRUCTION_MEMORY):
            checks["instruction_suppression_improves_throughput"] = (
                self.result_for(VariantName.SUPPRESS_INSTRUCTION_MEMORY)
                .projected_boot_minutes
                < self.result_for(VariantName.REDUCED_SCHEDULING)
                .projected_boot_minutes)
        if have(VariantName.SUPPRESS_INSTRUCTION_MEMORY) \
                and have(VariantName.SUPPRESS_MAIN_MEMORY):
            checks["main_memory_suppression_improves_further"] = (
                self.result_for(VariantName.SUPPRESS_MAIN_MEMORY)
                .projected_boot_minutes
                <= self.result_for(VariantName.SUPPRESS_INSTRUCTION_MEMORY)
                .projected_boot_minutes * 1.05)
        if have(VariantName.REDUCED_SCHEDULING_2) \
                and have(VariantName.KERNEL_FUNCTION_CAPTURE):
            checks["kernel_capture_roughly_halves_boot_time"] = \
                self.capture_boot_speedup() > 1.3
        return checks

    # -- rendering -------------------------------------------------------------------
    def to_rows(self) -> list[dict]:
        """Structured rows for the Figure 2 table."""
        rows = []
        for result in self.results:
            rows.append({
                "variant": result.variant.value,
                "engine": result.engine,
                "bus_level": result.bus_level,
                "cpu_level": result.cpu_level,
                "label": result.label,
                "measured_cps_khz": result.cps_khz,
                "measured_effective_cps_khz": result.effective_cps_khz,
                "measured_cpi": result.cpi,
                "projected_boot": format_duration(
                    result.projected_boot_minutes * 60.0),
                "paper_cps_khz": result.paper_cps_khz,
                "paper_boot": format_duration(
                    result.paper_boot_minutes * 60.0),
                "processes": result.process_count,
            })
        return rows

    def format_table(self) -> str:
        """A text rendering of the Figure 2 reproduction."""
        header = (f"{'configuration':<24} {'CPS [kHz]':>10} {'eff.':>8} "
                  f"{'CPI':>6} {'boot (proj.)':>14} "
                  f"{'paper CPS':>10} {'paper boot':>14}")
        lines = [header, "-" * len(header)]
        for row in self.to_rows():
            lines.append(
                f"{row['label']:<24} {row['measured_cps_khz']:>10.3f} "
                f"{row['measured_effective_cps_khz']:>8.3f} "
                f"{row['measured_cpi']:>6.2f} {row['projected_boot']:>14} "
                f"{row['paper_cps_khz']:>10.3f} {row['paper_boot']:>14}")
        return "\n".join(lines)

    def summary_lines(self) -> list[str]:
        """The headline claims, measured (sections 4.6, 5.5, 7)."""
        lines = []
        if self.has(VariantName.RTL_HDL) and self.has(VariantName.INITIAL):
            lines.append(f"initial SystemC model vs RTL HDL: "
                         f"{self.speedup_over_rtl(VariantName.INITIAL):.0f}x")
        if self.has(VariantName.RTL_HDL) \
                and self.has(VariantName.KERNEL_FUNCTION_CAPTURE):
            lines.append(
                f"fastest non-cycle-accurate model vs RTL HDL: "
                f"{self.speedup_over_rtl(VariantName.KERNEL_FUNCTION_CAPTURE):.0f}x")
        if self.has(VariantName.INITIAL) \
                and self.has(VariantName.NATIVE_TYPES):
            lines.append(f"native data types vs initial model: "
                         f"+{self.native_types_improvement():.0f}%")
        if self.has(VariantName.REDUCED_SCHEDULING_2) \
                and self.has(VariantName.KERNEL_FUNCTION_CAPTURE):
            lines.append(f"kernel-function capture boot-time speedup: "
                         f"{self.capture_boot_speedup():.2f}x")
        return lines


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

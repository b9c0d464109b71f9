"""Measurement primitives: CPS, CPI, speed-ups and boot-time projection.

The paper's figure of merit is *simulation speed in simulated clock cycles
per second of host time* (CPS), reported in kHz, together with the wall
time a full uClinux boot would take at that speed.  Because this
reproduction runs on a different host and a scaled-down boot workload, the
harness measures CPS and CPI on the scaled workload and *projects* the
full-boot time for a reference instruction count, which is how the shape of
Figure 2 (ordering, ratios, crossovers) is reproduced without a multi-week
RTL simulation.

:func:`measure` is the one code that times simulation speed: the Figure 2
harness, the sweep and every speed gate go through it.  It reports a
median with its quartiles over interleaved rounds, and compares two
windows by the median of their per-round ratios (Kalibera & Jones,
"Rigorous Benchmarking in Reasonable Time", ISMM 2013).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, TypeVar

#: Instructions retired by a full uClinux boot, estimated from the paper:
#: the cycle-accurate models take ~630 M cycles (61 kHz x 2 h 52 m) at a
#: CPI of roughly 4, giving ~160 M instructions.
REFERENCE_BOOT_INSTRUCTIONS = 160_000_000

K = TypeVar("K")


def cycles_per_second(cycles: int, wall_seconds: float) -> float:
    """Simulated clock cycles per host second (the paper's CPS)."""
    if wall_seconds <= 0:
        return 0.0
    return cycles / wall_seconds


def to_khz(cps: float) -> float:
    """CPS expressed in kHz, as in Figure 2."""
    return cps / 1e3


def speedup(cps: float, baseline_cps: float) -> float:
    """How many times faster than a baseline (e.g. RTL HDL)."""
    if baseline_cps <= 0:
        return float("inf")
    return cps / baseline_cps


def format_duration(seconds: float) -> str:
    """Render a duration the way the paper annotates Figure 2.

    Examples: ``5m56s``, ``1h9m``, ``1 month 15 days``.
    """
    if seconds < 0:
        raise ValueError("duration must be non-negative")
    minutes, secs = divmod(int(round(seconds)), 60)
    hours, minutes = divmod(minutes, 60)
    days, hours = divmod(hours, 24)
    if days >= 30:
        months, days = divmod(days, 30)
        parts = [f"{months} month" + ("s" if months > 1 else "")]
        if days:
            parts.append(f"{days} days")
        return " ".join(parts)
    if days:
        return f"{days}d{hours}h"
    if hours:
        return f"{hours}h{minutes}m"
    if minutes:
        return f"{minutes}m{secs}s"
    return f"{secs}s"


@dataclass(frozen=True)
class SpeedMeasurement:
    """What :func:`measure` records for one window: one value per timed
    round.

    For a measured window each value is its rate in that round (simulated
    cycles per second of process CPU time).  :meth:`over` turns two
    windows measured in the same call into a comparison whose values are
    the per-round ratios, so ``a.over(b).median`` is "a is k times b".
    """

    values: tuple[float, ...]

    @property
    def rounds(self) -> int:
        """Number of timed rounds."""
        return len(self.values)

    @property
    def median(self) -> float:
        """Median over the rounds."""
        return statistics.median(self.values)

    @property
    def quartiles(self) -> tuple[float, float]:
        """First and third quartile over the rounds (inclusive method)."""
        if len(self.values) < 2:
            return self.median, self.median
        first, __, third = statistics.quantiles(self.values, n=4,
                                                method="inclusive")
        return first, third

    def over(self, base: "SpeedMeasurement") -> "SpeedMeasurement":
        """The per-round ratios of this window over ``base``.

        Round *i* of one window ran next to round *i* of the other, so
        each ratio cancels whatever the host did during that round.
        """
        if len(self.values) != len(base.values):
            raise ValueError(f"cannot pair {len(self.values)} rounds with "
                             f"{len(base.values)}")
        return SpeedMeasurement(tuple(
            speedup(value, reference)
            for value, reference in zip(self.values, base.values)))

    def __str__(self) -> str:
        first, third = self.quartiles
        return (f"median {self.median:.4g}, IQR {first:.4g}-{third:.4g}, "
                f"{self.rounds} rounds")


def measure(windows: Mapping[K, Callable[[], int]], rounds: int,
            setup: Optional[Callable[[K], object]] = None
            ) -> dict[K, SpeedMeasurement]:
    """Time ``windows`` against each other over ``rounds`` rounds.

    Each window advances one model and returns the simulated cycles it
    advanced.  One untimed warm-up round runs every window once, so lazily
    built state is in place; then each timed round runs every window once,
    in the mapping's order (A B A B ...), so drift on the host falls on
    every window alike.  Time is process CPU time, which other processes
    on the host do not add to.  Every timed run is kept: nothing is
    retried and no reading is dropped or replaced by a better one.

    ``setup(key)``, when given, runs untimed before each run of the window
    ``key``; a window that needs a fresh model every round builds it
    there.
    """
    if rounds < 1:
        raise ValueError("measure needs at least one timed round")
    rates: dict[K, list[float]] = {key: [] for key in windows}
    for timed in [False] + [True] * rounds:
        for key, window in windows.items():
            if setup is not None:
                setup(key)
            started = time.process_time()
            cycles = window()
            elapsed = time.process_time() - started
            if timed:
                rates[key].append(cycles_per_second(cycles, elapsed))
    return {key: SpeedMeasurement(tuple(values))
            for key, values in rates.items()}

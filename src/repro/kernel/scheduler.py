"""The generic discrete-event engine (the "SystemC kernel" of this library).

:class:`Simulator` is the general-purpose implementation of
:class:`~repro.kernel.engine.SimulationEngine`: it follows the SystemC 2.x
evaluate / update / delta-notify execution semantics exactly as described in
:mod:`repro.kernel.engine`, and keeps timed notifications in a ``heapq``
priority queue so it supports arbitrary notification times from arbitrary
models.

The per-phase bookkeeping is deliberately explicit because the paper's
optimisations (sections 4.3--4.5) are about reducing exactly this work:
fewer processes scheduled per cycle, fewer channel updates, fewer port
reads.  :class:`KernelStatistics` exposes the counters that make those
savings visible in tests and benchmarks.  The clock-synchronous fast-path
engine lives in :mod:`repro.kernel.clocked`.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from .engine import ENGINE_GENERIC, SimulationEngine
from .statistics import KernelStatistics  # noqa: F401  (historical import site)
from .events import Event
from .simtime import _as_ps


class Simulator(SimulationEngine):
    """The general-purpose engine: heapq timed queue, no model assumptions.

    This is the reference implementation every other engine must match
    architecturally.  Kept under its historical name because the whole
    model layer originally type-hinted against it; models now accept any
    :class:`~repro.kernel.engine.SimulationEngine`.
    """

    kind = ENGINE_GENERIC

    def __init__(self, name: str = "sim") -> None:
        super().__init__(name)
        self._timed_queue: list[tuple[int, int, object]] = []
        self._timed_seq = 0

    # -- timed notifications ------------------------------------------------
    def _queue_timed_notification(self, time_ps: int, event: Event) -> None:
        self._timed_seq += 1
        heapq.heappush(self._timed_queue, (time_ps, self._timed_seq, event))

    def schedule_action(self, delay, action: Callable[[], None]) -> None:
        """Schedule a bare callable to run at ``now + delay``."""
        self._timed_seq += 1
        heapq.heappush(self._timed_queue,
                       (self.time_ps + _as_ps(delay), self._timed_seq,
                        action))

    def _cancel_timed_notification(self, event: Event) -> None:
        self._timed_queue = [entry for entry in self._timed_queue
                             if entry[2] is not event]
        heapq.heapify(self._timed_queue)

    def _clear_timed_state(self) -> None:
        self._timed_queue.clear()
        self._timed_seq = 0

    # -- time advance -------------------------------------------------------
    def _advance_time(self, end_time: Optional[int], stats) -> bool:
        if not self._timed_queue:
            self._finished = True
            return False
        next_time = self._timed_queue[0][0]
        if end_time is not None and next_time > end_time:
            self.time_ps = end_time
            return False
        self.time_ps = next_time
        stats.timed_steps += 1
        while self._timed_queue and self._timed_queue[0][0] == next_time:
            __, __, item = heapq.heappop(self._timed_queue)
            self._deliver_timed_item(item, next_time, stats)
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Simulator({self.name!r}, t={self.current_time}, "
                f"processes={len(self._processes)})")

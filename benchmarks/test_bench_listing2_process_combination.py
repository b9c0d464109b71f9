"""Listing 2 (E12): combining concurrent elements.

Section 4.5.1: several processes with identical sensitivity can be replaced
by one process calling the same computation as functions, saving scheduler
work.  In the full model combining 3 threads bought 3 %.  This check
isolates the scheduling structure by comparing N separate single-cycle
processes against one combined process doing identical work, for both
thread and method registration (the section 4.3 thread/method comparison
at the micro level).
"""

from __future__ import annotations

import pytest

from repro.kernel import Module, SimTime, Simulator
from repro.signals import Clock, Signal

CYCLES_PER_ROUND = 2_000
WORKER_COUNT = 6


class _Workers(Module):
    """N tiny synchronous computations, separate or combined."""

    def __init__(self, sim, name, clock, combined: bool,
                 use_methods: bool) -> None:
        super().__init__(sim, name)
        self.signals = [Signal(sim, f"{name}.s{i}", 0)
                        for i in range(WORKER_COUNT)]
        self.accumulators = [0] * WORKER_COUNT
        if combined:
            self.sc_process(self._combined,
                            sensitive=[clock.posedge_event()],
                            use_method=use_methods, dont_initialize=True)
        else:
            for index in range(WORKER_COUNT):
                self.sc_process(self._make_worker(index),
                                sensitive=[clock.posedge_event()],
                                use_method=use_methods,
                                dont_initialize=True)

    def _make_worker(self, index: int):
        def worker():
            self._work(index)
        worker.__name__ = f"worker{index}"
        return worker

    def _combined(self) -> None:
        # Listing 2: do_function_2 before do_function_1 order preserved by
        # iterating in fixed order.
        for index in range(WORKER_COUNT):
            self._work(index)

    def _work(self, index: int) -> None:
        self.accumulators[index] += 1
        self.signals[index].write(self.accumulators[index] + 42)


def _build(combined: bool, use_methods: bool):
    sim = Simulator()
    clock = Clock(sim, "clk", SimTime.ns(10))
    workers = _Workers(sim, "workers", clock, combined, use_methods)
    return sim, clock, workers


@pytest.mark.parametrize(
    "combined,use_methods",
    [(False, False), (False, True), (True, True)],
    ids=["separate_threads", "separate_methods", "combined_method"])
def test_listing2_process_combination(combined, use_methods):
    """Separate and combined synchronous processes do the same work."""
    sim, clock, workers = _build(combined, use_methods)
    sim.run(SimTime(clock.period_ps * CYCLES_PER_ROUND))
    # Identical architectural work regardless of scheduling style.
    assert len(set(workers.accumulators)) == 1
    if combined:
        assert sim.process_count() == 1
    else:
        assert sim.process_count() == WORKER_COUNT

"""Ablations beyond the paper's own bars, checked by the work they do.

DESIGN.md calls out three design choices worth isolating:

* resolved versus native signals as a function of signal width -- shows why
  the section 4.2 optimisation dominates,
* method versus thread cost as a function of process count -- the
  scheduling overhead behind sections 4.3/4.5.1,
* dispatcher hit-rate sensitivity -- how much of the section 5.1/5.2 win
  depends on fetches actually hitting dispatcher-served memory.
"""

from __future__ import annotations

import pytest

from repro.kernel import Module, SimTime, Simulator
from repro.signals import Clock, DataMode, make_signal
from repro.platform import ModelConfig, VanillaNetPlatform
from repro.software import memory_exercise_program

CYCLES_PER_ROUND = 1_500


class _SignalChurn(Module):
    """One clocked process rewriting a bank of signals every cycle."""

    def __init__(self, sim, name, clock, mode: DataMode, width: int,
                 count: int = 8) -> None:
        super().__init__(sim, name)
        self.signals = [make_signal(sim, f"{name}.s{i}", width, mode)
                        for i in range(count)]
        self.counter = 0
        self.sc_method(self._churn, sensitive=[clock.posedge_event()],
                       dont_initialize=True)

    def _churn(self) -> None:
        self.counter += 1
        for index, signal in enumerate(self.signals):
            signal.write((self.counter + index) & 0xFFFF_FFFF)


@pytest.mark.parametrize("mode,width", [
    (DataMode.NATIVE, 1), (DataMode.NATIVE, 32),
    (DataMode.RESOLVED, 1), (DataMode.RESOLVED, 32),
], ids=["native_1bit", "native_32bit", "resolved_1bit", "resolved_32bit"])
def test_ablation_signal_data_types(mode, width):
    """Resolved and native signals of two widths do the same work."""
    sim = Simulator()
    clock = Clock(sim, "clk", SimTime.ns(10))
    churn = _SignalChurn(sim, "churn", clock, mode, width)
    sim.run(SimTime(clock.period_ps * CYCLES_PER_ROUND))
    assert churn.counter >= CYCLES_PER_ROUND


class _ProcessFarm(Module):
    """N single-cycle processes, registered as threads or methods."""

    def __init__(self, sim, name, clock, count: int,
                 use_methods: bool) -> None:
        super().__init__(sim, name)
        self.ticks = 0

        def work():
            self.ticks += 1

        for index in range(count):
            self.sc_process(work, sensitive=[clock.posedge_event()],
                            use_method=use_methods, dont_initialize=True)


@pytest.mark.parametrize("count,use_methods", [
    (4, False), (4, True), (16, False), (16, True),
], ids=["4_threads", "4_methods", "16_threads", "16_methods"])
def test_ablation_thread_vs_method_scaling(count, use_methods):
    """Thread and method processes run once per cycle at two scales."""
    sim = Simulator()
    clock = Clock(sim, "clk", SimTime.ns(10))
    farm = _ProcessFarm(sim, "farm", clock, count, use_methods)
    sim.run(SimTime(clock.period_ps * CYCLES_PER_ROUND))
    assert farm.ticks >= CYCLES_PER_ROUND * count


@pytest.mark.parametrize("dispatcher_enabled", [False, True],
                         ids=["bram_workload_no_benefit",
                              "bram_workload_dispatcher_on"])
def test_ablation_dispatcher_hit_rate(dispatcher_enabled):
    """Dispatcher benefit disappears when fetches already hit the 1-cycle LMB.

    The memory-exercise program runs entirely from BRAM, which the LMB
    serves in one cycle with or without the dispatcher; the dispatcher's
    Figure 2 win exists only because the uClinux boot fetches from SDRAM.
    """
    config = ModelConfig(name="ablation", use_methods=True,
                         data_mode=DataMode.NATIVE,
                         suppress_instruction_memory=dispatcher_enabled,
                         suppress_main_memory=dispatcher_enabled)
    platform = VanillaNetPlatform(config)
    platform.load_program(memory_exercise_program(region_bytes=48))
    platform.run_until_halt(max_cycles=200_000, chunk_cycles=1_000)
    assert platform.microblaze.finished
    if dispatcher_enabled:
        # BRAM fetches go over the LMB, so the dispatcher sees none of them.
        assert platform.dispatcher.instruction_fetches == 0

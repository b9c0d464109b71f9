"""Listing 1 (E11): reduced port reading.

The paper's section 4.4 shows the same method written twice: once reading
its input ports repeatedly, once reading each port exactly once into a
local variable.  In the full model the change of 6 per-cycle port reads to
3 bought 2.5 %.  This check isolates the effect: two otherwise identical
models differ only in how many port reads each activation performs.
"""

from __future__ import annotations

import pytest

from repro.kernel import Module, SimTime, Simulator
from repro.signals import Clock, InPort, OutPort, Signal

CYCLES_PER_ROUND = 2_000


class _PortReader(Module):
    """A method process combining two inputs, section 4.4 style."""

    def __init__(self, sim, name, clock, reduced: bool) -> None:
        super().__init__(sim, name)
        self.reduced = reduced
        self.x = InPort("x")
        self.y = InPort("y")
        self.z = OutPort("z")
        self.x.bind(Signal(sim, f"{name}.xs", 1))
        self.y.bind(Signal(sim, f"{name}.ys", 2))
        self.z.bind(Signal(sim, f"{name}.zs", 0))
        self.sc_method(self._compute, sensitive=[clock.posedge_event()],
                       dont_initialize=True)

    def _compute(self) -> None:
        if self.reduced:
            # Reduced port reads: one read per port per activation.
            local_x = self.x.read()
            if local_x != 2:
                self.z.write(local_x + self.y.read())
        else:
            # Naive style: the x port is read again for every use.
            if self.x.read() != 2:
                self.z.write(self.x.read() + self.y.read())
            # Hardware-style extra reads (reset-check idiom of the paper).
            __ = self.x.read()
            __ = self.y.read()


def _build(reduced: bool):
    sim = Simulator()
    clock = Clock(sim, "clk", SimTime.ns(10))
    readers = [_PortReader(sim, f"reader{i}", clock, reduced)
               for i in range(6)]
    return sim, clock, readers


@pytest.mark.parametrize("reduced", [False, True],
                         ids=["multiple_port_reads", "reduced_port_reads"])
def test_listing1_port_reading(reduced):
    """Port reads per cycle of the Listing 1 method with and without the
    optimisation."""
    sim, clock, readers = _build(reduced)
    sim.run(SimTime(clock.period_ps * CYCLES_PER_ROUND))
    total_reads = sum(reader.x.read_count + reader.y.read_count
                      for reader in readers)
    port_reads_per_cycle = round(total_reads / max(1, clock.cycles), 2)
    if reduced:
        assert port_reads_per_cycle <= 12.5
    else:
        assert port_reads_per_cycle >= 18.0

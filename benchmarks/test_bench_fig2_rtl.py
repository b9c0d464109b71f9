"""Figure 2, bar 0 (E1): the RTL HDL baseline.

The paper measured ModelSim simulating the EDK netlist at 167 Hz; a full
uClinux boot would take 1 month 15 days, so (like the paper) the RTL
baseline runs a "simpler program".  Its speed is measured, interleaved with
the SystemC-style bars, by
``test_bench_fig2_summary.py::test_figure2_full_reproduction``, which
checks the 10x-and-more speed-up of every SystemC model over it.
"""

from __future__ import annotations

from repro.rtl import RtlVanillaNetSystem
from repro.software import memory_exercise_program


def test_rtl_hdl_baseline_speed():
    """The register-transfer-level structure the baseline's speed comes
    from: an order of magnitude more processes than the SystemC model."""
    system = RtlVanillaNetSystem()
    system.load_program(memory_exercise_program(region_bytes=64))
    assert system.process_count() > 60

"""Exact modelled-work gate for the pin- and cycle-accurate path.

Making the signal-level model cheaper on the host must not change the work
it models.  Each configuration below runs the clocked engine, the signal bus
and the cycle CPU over the same boot window, and the run's work counters --
kernel statistics, the OPB slaves' port accesses, the interconnect signals'
accesses, the fabric's transfers and the retired instructions -- must equal
the pinned values exactly.  Unlike the speed floors under ``benchmarks/``,
these counters repeat exactly for a given input, so the gate cannot flake;
one extra port read or one extra process activation per cycle fails it.
"""

import pytest

from repro.bus import BUS_SIGNAL
from repro.iss import CPU_CYCLE
from repro.kernel import ENGINE_CLOCKED
from repro.platform import VanillaNetPlatform, VariantName, variant_config
from repro.software import BootParams, build_boot_program

#: Bus clock cycles of boot each configuration runs.
WINDOW_CYCLES = 4_000

SLAVE_PORTS = ("select_port", "address_port", "wdata_port", "rnw_port",
               "be_port", "reset_port", "rdata_port", "ack_port")

COUNTERS = ("activations", "deltas", "timed_steps", "channel_updates",
            "events_notified", "slave_port_reads", "slave_port_writes",
            "signal_reads", "signal_writes", "signal_changes",
            "transfers", "transfer_cycles", "cycles", "instructions")

#: The modelled work of each configuration, in ``COUNTERS`` order:
#: reduced_scheduling is perfbench's ``boot_cycle`` model, native_types
#: reads ports naively, initial uses resolved signals, and
#: reduced_scheduling_2 wakes gated slaves explicitly.
PINNED = {
    VariantName.REDUCED_SCHEDULING: (44501, 249, 7999, 22352, 4747,
                                     66085, 3844, 86733, 18946, 11898,
                                     1006, 3998, 4000, 800),
    VariantName.NATIVE_TYPES: (52501, 249, 7999, 22352, 4747,
                               104072, 3844, 124720, 18946, 11898,
                               1006, 3998, 4000, 800),
    VariantName.INITIAL: (52501, 249, 7999, 22172, 4747,
                          104072, 3844, 124720, 16934, 11950,
                          1006, 3998, 4000, 800),
    VariantName.REDUCED_SCHEDULING_2: (32921, 459, 7999, 10134, 5699,
                                       23226, 1244, 37238, 6134, 4251,
                                       326, 768, 4000, 2802),
}


def modelled_work(variant: VariantName) -> dict:
    """Run the boot window on ``variant`` and collect its work counters."""
    platform = VanillaNetPlatform(variant_config(
        variant, engine=ENGINE_CLOCKED, bus_level=BUS_SIGNAL,
        cpu_level=CPU_CYCLE))
    platform.load_program(build_boot_program(BootParams().scaled(0.2)))
    platform.run_cycles(WINDOW_CYCLES)
    stats = platform.sim.stats
    ports = [getattr(slave, name) for slave in platform.bus_fabric.slaves
             for name in SLAVE_PORTS]
    signals = list(platform.interconnect.all_signals().values())
    fabric = platform.bus_fabric
    return dict(zip(COUNTERS, (
        stats.process_activations, stats.delta_cycles, stats.timed_steps,
        stats.channel_updates, stats.events_notified,
        sum(port.read_count for port in ports),
        sum(port.write_count for port in ports),
        sum(signal.read_count for signal in signals),
        sum(signal.write_count for signal in signals),
        sum(signal.change_count for signal in signals),
        fabric.transfer_count, fabric.cycles_spent,
        platform.cycle_count, platform.statistics.instructions_retired)))


@pytest.mark.parametrize("variant", list(PINNED), ids=lambda v: v.value)
def test_modelled_work_is_pinned(variant):
    assert modelled_work(variant) == dict(zip(COUNTERS, PINNED[variant]))

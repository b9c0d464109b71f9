"""Exact warp-counter gates next to the two quantum speed floors.

``benchmarks/test_bench_cpu_levels.py::test_quantum_cpu_speedup`` (>= 10x)
and ``benchmarks/test_bench_cluster.py::test_cluster_quantum_speedup``
(>= 5x) gate the quantum level's speed on a noisy host.  The counters of
the same workloads repeat exactly for a given input, so these gates need
no timing and cannot flake: a warp that no longer engages, ends earlier or
stops compiling its hot loops moves them.  Each workload below is the
benchmark's, run exactly as the benchmark runs it (warm-up window and
timed rounds included).
"""

import pytest

from repro.bus import BUS_FUNCTIONAL, BUS_TRANSACTION
from repro.core import build_ping_cluster
from repro.iss import CPU_QUANTUM
from repro.kernel import ENGINE_CLOCKED
from repro.platform import VanillaNetPlatform, VariantName, variant_config
from repro.software import BootParams, build_boot_program

#: ``test_quantum_cpu_speedup``'s compute-heavy boot: a long checksum loop
#: over DMI-backed SDRAM and a distant timer horizon.
COMPUTE_BOOT = BootParams(
    bss_bytes=32, kernel_copy_bytes=48, page_clear_bytes=16,
    page_clear_count=1, rootfs_copy_bytes=16, checksum_words=30_000,
    progress_dots=1, timer_ticks=1, timer_period_cycles=100_000,
    device_probe_rounds=1)

#: Its run: 30 warm-up instructions, then one untimed and three timed
#: windows of 40,000 instructions.
COMPUTE_WINDOWS = 4

#: ``test_cluster_quantum_speedup``'s traffic-at-scale workload.
CLUSTER_PAYLOAD = tuple(range(1, 65))
CLUSTER_PINGS = 20


def warp_counters(statistics, *names) -> dict:
    return {name: getattr(statistics, name) for name in names} \
        | {"warp_ends": dict(statistics.warp_ends)}


def test_compute_boot_warp_counters():
    platform = VanillaNetPlatform(variant_config(
        VariantName.SUPPRESS_MAIN_MEMORY, engine=ENGINE_CLOCKED,
        bus_level=BUS_FUNCTIONAL, cpu_level=CPU_QUANTUM))
    platform.load_program(build_boot_program(COMPUTE_BOOT))
    platform.run_instructions(30, chunk_cycles=2_000)
    for __ in range(COMPUTE_WINDOWS):
        platform.run_instructions(40_000, chunk_cycles=20_000)
    assert platform.statistics.instructions_retired == 160_030
    assert platform.cycle_count == 242_000
    assert warp_counters(platform.statistics, "quantum_warps",
                         "quantum_instructions", "traces_compiled") == {
        "quantum_warps": 168, "quantum_instructions": 160_009,
        "traces_compiled": 4,
        "warp_ends": {"budget": 155, "device": 4, "bound": 9}}


@pytest.mark.parametrize("bus_level", [BUS_FUNCTIONAL, BUS_TRANSACTION])
def test_cluster_warp_counters(bus_level):
    cluster = build_ping_cluster(2, ENGINE_CLOCKED, bus_level, CPU_QUANTUM,
                                 ping_count=CLUSTER_PINGS,
                                 payload=CLUSTER_PAYLOAD)
    assert cluster.run_until_halt(max_cycles=200_000, chunk_cycles=2_000)
    assert cluster.cycle_count == 36_748
    ends = {"horizon": 20, "bound": 18, "budget": 8, "halt": 1}
    assert [warp_counters(node.statistics, "quantum_warps",
                          "quantum_instructions", "traces_compiled",
                          "trace_runs") for node in cluster.nodes] == [
        {"quantum_warps": 69, "quantum_instructions": 24_439,
         "traces_compiled": 5, "trace_runs": 629,
         "warp_ends": ends | {"device": 22}},
        {"quantum_warps": 55, "quantum_instructions": 24_044,
         "traces_compiled": 5, "trace_runs": 615,
         "warp_ends": ends | {"device": 8}}]

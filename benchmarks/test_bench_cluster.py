"""Multi-node cluster benchmark: the ping/echo workload across the seams.

The cluster tentpole adds a second scenario next to the single-board
boot: two (or more) VanillaNet nodes in one kernel exchanging frames
over the Ethernet link, RX interrupts and all.
``examples/figure2_sweep.py --record`` times that workload on every
engine x bus level x cpu level combination and records the cells into
``figure2_cluster_comparison.txt`` and ``BENCH_fig2.json``.

Gates:

* every combination finishes the workload within the cycle budget;
* every combination reports bit-identical consoles, cycle counts and
  frame counters (the differential-identity claim, end to end);
* the link-latency-bounded warp pays off: the clocked-kernel
  ``functional/quantum`` and ``transaction/quantum`` cells run the
  traffic-at-scale workload at >= 5x their ``cycle`` counterparts at
  the default 8-cycle link latency (``test_cluster_quantum_speedup``;
  its warp counters are pinned exactly in tests/test_warp_counters.py);
* a three-node switch run finishes and broadcasts to the bystander.
"""

from __future__ import annotations

import itertools

from repro.bus import bus_levels
from repro.core import ExperimentOptions, Figure2Experiment, build_ping_cluster
from repro.iss import cpu_levels
from repro.kernel import engine_kinds

PING_COUNT = 3

#: Traffic-at-scale workload for the warp speedup gate: 256-byte frames
#: (64 payload words) shift each round from interrupt bookkeeping to
#: frame staging/draining -- the mix the multi-node scenario is meant to
#: stress -- and a coarser chunk cadence keeps measurement scheduling
#: out of the measured loop.  The identity matrix below deliberately
#: keeps the small frames and fine chunks (more seams crossed per cycle).
#: Each round runs every cell once, from a fresh cluster to its halt.
GATE_OPTIONS = ExperimentOptions(phases=3, chunk_cycles=2000)
GATE_PAYLOAD = tuple(range(1, 65))
GATE_PING_COUNT = 20
#: Acceptance floor for quantum-vs-cycle on the gate workload.  Measured
#: headroom is ~6-7x; 5x leaves room for shared-runner noise while still
#: catching a disabled or crippled warp (which lands at ~1x).
GATE_SPEEDUP = 5.0


def test_cluster_comparison_matrix():
    """Two-node ping/echo across all twelve seam combinations."""
    runs = {}
    for combo in itertools.product(engine_kinds(), bus_levels(),
                                   cpu_levels()):
        cluster = build_ping_cluster(2, *combo, ping_count=PING_COUNT)
        finished = cluster.run_until_halt(max_cycles=200_000,
                                          chunk_cycles=200)
        runs[combo] = (finished, cluster.console_outputs(),
                       cluster.cycle_count, cluster.link.frames_switched,
                       cluster.link.frames_delivered)

    assert all(run[0] for run in runs.values())
    # Every combination must agree on everything the model computes:
    # the differential-identity contract, end to end.
    reference = next(iter(runs.values()))
    assert reference[1][0] == f"ping: {PING_COUNT} replies ok\n"
    for combo, run in runs.items():
        assert run == reference, combo


def test_cluster_quantum_speedup():
    """The warp horizon pays off: quantum >= 5x cycle on linked nodes.

    Clocked kernel, default 8-cycle link latency, traffic-at-scale
    frames.  The four cells run interleaved in one measurement and the
    gate reads the median of the per-round quantum-over-cycle ratios; the
    quantum and cycle cells must also agree bit-for-bit on cycles and
    consoles (speed without identity would be a miscompiled warp, not a
    win).
    """
    results = Figure2Experiment(GATE_OPTIONS).measure_clusters(
        [("clocked", bus_level, cpu_level)
         for bus_level in ("functional", "transaction")
         for cpu_level in ("quantum", "cycle")],
        ping_count=GATE_PING_COUNT, payload=GATE_PAYLOAD)
    cells = {(result.bus_level, result.cpu_level): result
             for result in results}
    for result in results:
        assert result.finished, result.key

    for bus_level in ("functional", "transaction"):
        quantum = cells[bus_level, "quantum"]
        cycle = cells[bus_level, "cycle"]
        assert quantum.cycles == cycle.cycles, bus_level
        assert quantum.consoles == cycle.consoles, bus_level
        assert quantum.frames_delivered == cycle.frames_delivered, \
            bus_level
        speedup = quantum.speed.over(cycle.speed)
        print(f"cluster2/clocked/{bus_level} quantum/cycle: {speedup}")
        assert speedup.median >= GATE_SPEEDUP, (
            f"cluster2/clocked/{bus_level}: quantum {quantum.cps_khz:.1f} "
            f"kcps is only {speedup} cycle {cycle.cps_khz:.1f} kcps "
            f"(gate {GATE_SPEEDUP}x)")


def test_three_node_switch():
    """An N-port switch run: node 2 idles and overhears the broadcast."""
    cluster = build_ping_cluster(3, ping_count=PING_COUNT)
    assert cluster.run_until_halt(max_cycles=200_000, chunk_cycles=200)
    assert cluster.console_outputs()[0] \
        == f"ping: {PING_COUNT} replies ok\n"
    # Every switched frame reaches both other ports on a 3-node hub.
    assert cluster.link.frames_delivered == 2 * cluster.link.frames_switched

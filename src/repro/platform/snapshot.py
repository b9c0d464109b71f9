"""Checkpoint/restore snapshots of a booted VanillaNet platform.

The Figure 2 sweep measures every (variant, engine, bus level, cpu level)
cell from the same warmed-up software state.  Re-simulating the boot for
every cell is pure repeated work; a :class:`SimulationSnapshot` captures
the complete platform state once per variant -- kernel time, ISS
registers and memories, peripheral registers, FIFOs and consoles, signal
values and statistics counters -- as *plain picklable data*, so a sweep
worker can restore it into a freshly built platform (possibly on another
engine / bus level / cpu level) and continue the measurement from the
warm point.

The platform state itself is gathered by a generic walk over the
:class:`~repro.kernel.component.SimComponent` tree rooted at the
platform: every component knows how to capture and restore its own state
(:meth:`capture_state` / :meth:`restore_state`) and names its stateful
children (:meth:`state_children`).  This module only adds the parts the
components cannot know: the parked-point preconditions, the kernel-time
reset, and the cross-configuration metadata.

Snapshots are taken at a *parked* point: right after
``run_instructions()`` returned, when no process is runnable, no update
or delta notification is pending, and the only timed activity is the
execute thread's idle timeout, the UART transmit sleeps and the clock's
next edge.  Restoration rebuilds exactly that picture:

1. build a fresh platform and ``load_program()`` the same program,
2. :meth:`~repro.kernel.engine.SimulationEngine.restore_reset` the
   engine to the snapshot time with empty queues,
3. walk the component tree, injecting the captured state into every
   name-matched component (components with generator-based threads
   pre-start them on empty state first, since generators do not pickle),
   re-arming the timed waits -- clock edge, execute-thread wake, UART
   wakes -- at their absolute snapshot times.

Cross-configuration contract: restoring onto a *different* engine, bus
level or cpu level preserves the architectural state (registers, PC,
memories, peripheral registers, console text, retired-instruction
statistics); level-specific observables (bus-fabric counters, VCD text)
transfer only between matching levels.  The gating falls out of the
tree walk: components that only exist in some configurations (arbiter,
master ports, tracer) are matched by name and silently skipped when
either side lacks them, and components declaring
``state_scope = SCOPE_BUS_LEVEL`` are skipped wholesale on
cross-bus-level restores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..kernel.component import capture_tree, restore_tree
from ..kernel.errors import ModelError


@dataclass
class SimulationSnapshot:
    """Complete, picklable state of a parked :class:`VanillaNetPlatform`.

    ``tree`` is the nested plain-data state produced by
    :func:`~repro.kernel.component.capture_tree`; the remaining fields
    are configuration metadata used to gate cross-level restores.
    """

    variant: Optional[str]
    engine: str
    bus_level: str
    cpu_level: str
    trace_enabled: bool
    time_ps: int
    delta_count: int
    tree: dict


# ---------------------------------------------------------------------- #
# capture
# ---------------------------------------------------------------------- #
def capture_snapshot(platform, variant: Optional[str] = None) \
        -> SimulationSnapshot:
    """Snapshot a parked platform into plain picklable data.

    The platform must be quiescent: call right after
    ``run_instructions()`` (or ``run_cycles()``) returned, with no
    process runnable and no pending update or delta notification.
    """
    sim = platform.sim
    if not sim.quiescent:
        raise ModelError(
            "snapshot requires a quiescent simulation (pending processes "
            "or notifications); run to an instruction budget first")
    if platform.program is None:
        raise ModelError("snapshot requires a loaded program")
    config = platform.config
    return SimulationSnapshot(
        variant=variant,
        engine=config.engine,
        bus_level=config.bus_level,
        cpu_level=config.cpu_level,
        trace_enabled=config.trace_enabled,
        time_ps=sim.time_ps,
        delta_count=sim.delta_count,
        tree=capture_tree(platform),
    )


# ---------------------------------------------------------------------- #
# restore
# ---------------------------------------------------------------------- #
def restore_snapshot(platform, snapshot: SimulationSnapshot) -> None:
    """Rebuild the snapshot state inside a freshly built platform.

    The platform must be newly constructed (never run) with the same
    program already loaded via ``load_program()``.  The target
    configuration may differ from the snapshot's in ``engine``,
    ``bus_level`` and ``cpu_level``; architectural state transfers
    across all of them, level-specific observables only between matching
    levels.
    """
    if platform.program is None:
        raise ModelError("restore requires the program to be loaded first "
                         "(snapshots do not carry the program image)")

    # Kernel first: empty queues at the snapshot time, so the tree walk's
    # re-armed waits land at their absolute snapshot times.
    platform.sim.restore_reset(snapshot.time_ps, snapshot.delta_count)

    restore_platform_state(platform, snapshot)


def restore_platform_state(platform, snapshot: SimulationSnapshot) -> None:
    """Inject a snapshot's component state (the tree walk of the restore).

    Split out from :func:`restore_snapshot` because
    ``SimulationEngine.restore_reset`` may run only once per engine: a
    multi-node cluster resets its shared kernel once and then calls this
    per node (see :mod:`repro.platform.cluster`).
    """
    same_bus_level = snapshot.bus_level == platform.config.bus_level
    restore_tree(platform, snapshot.tree, include_bus_level=same_bus_level)

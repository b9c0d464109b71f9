"""Signal bundles for the On-chip Peripheral Bus (OPB).

The OPB of the VanillaNet platform connects two masters (the MicroBlaze
instruction-side and data-side interfaces) to the memory and peripheral
slaves.  All signals present in the RTL netlist between components are also
present here (the paper's definition of pin accuracy); the *internals* of
each component are plain Python.

The signal data type is selected by
:class:`~repro.signals.signal.DataMode`: the "initial model" uses resolved
logic vectors everywhere, the optimised models use native integers
(section 4.2).  In either mode the bus models read these wires through the
signal's own ``read_int``/``read_bit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernel.component import SCOPE_BUS_LEVEL, SimComponent
from ..kernel.engine import SimulationEngine
from ..signals import DataMode, make_signal


@dataclass
class OpbMasterSignals:
    """Signals driven by one bus master plus its grant line."""

    request: object = None
    grant: object = None
    address: object = None
    write_data: object = None
    rnw: object = None
    byte_enable: object = None

    @classmethod
    def create(cls, sim: SimulationEngine, name: str,
               mode: DataMode) -> "OpbMasterSignals":
        """Create the per-master signal set in the requested data mode."""
        return cls(
            request=make_signal(sim, f"{name}.request", 1, mode),
            grant=make_signal(sim, f"{name}.grant", 1, mode),
            address=make_signal(sim, f"{name}.address", 32, mode),
            write_data=make_signal(sim, f"{name}.write_data", 32, mode),
            rnw=make_signal(sim, f"{name}.rnw", 1, mode),
            byte_enable=make_signal(sim, f"{name}.byte_enable", 4, mode),
        )

    def all_signals(self) -> dict:
        """Name -> signal mapping (used by the tracer)."""
        return {
            "request": self.request,
            "grant": self.grant,
            "address": self.address,
            "write_data": self.write_data,
            "rnw": self.rnw,
            "byte_enable": self.byte_enable,
        }


@dataclass
class OpbBusSignals:
    """The shared bus signals every slave sees."""

    select: object = None
    address: object = None
    write_data: object = None
    rnw: object = None
    byte_enable: object = None
    read_data: object = None
    xfer_ack: object = None
    reset: object = None
    master_id: object = None

    @classmethod
    def create(cls, sim: SimulationEngine, name: str,
               mode: DataMode) -> "OpbBusSignals":
        """Create the shared bus signal set in the requested data mode."""
        return cls(
            select=make_signal(sim, f"{name}.select", 1, mode),
            address=make_signal(sim, f"{name}.address", 32, mode),
            write_data=make_signal(sim, f"{name}.write_data", 32, mode),
            rnw=make_signal(sim, f"{name}.rnw", 1, mode),
            byte_enable=make_signal(sim, f"{name}.byte_enable", 4, mode),
            read_data=make_signal(sim, f"{name}.read_data", 32, mode),
            xfer_ack=make_signal(sim, f"{name}.xfer_ack", 1, mode),
            reset=make_signal(sim, f"{name}.reset", 1, mode),
            master_id=make_signal(sim, f"{name}.master_id", 2, mode),
        )

    def all_signals(self) -> dict:
        """Name -> signal mapping (used by the tracer)."""
        return {
            "select": self.select,
            "address": self.address,
            "write_data": self.write_data,
            "rnw": self.rnw,
            "byte_enable": self.byte_enable,
            "read_data": self.read_data,
            "xfer_ack": self.xfer_ack,
            "reset": self.reset,
            "master_id": self.master_id,
        }


@dataclass
class OpbInterconnect(SimComponent):
    """Everything the platform wires together: bus + both master bundles."""

    bus: OpbBusSignals
    instruction_master: OpbMasterSignals
    data_master: OpbMasterSignals
    mode: DataMode = DataMode.NATIVE
    extra: dict = field(default_factory=dict)

    #: Pin-level wire state only exists at the signal abstraction level; a
    #: snapshot crossing bus levels skips this subtree.
    state_scope = SCOPE_BUS_LEVEL

    @classmethod
    def create(cls, sim: SimulationEngine, mode: DataMode,
               name: str = "opb") -> "OpbInterconnect":
        """Create the full interconnect in the requested data mode."""
        return cls(
            bus=OpbBusSignals.create(sim, f"{name}.bus", mode),
            instruction_master=OpbMasterSignals.create(
                sim, f"{name}.imaster", mode),
            data_master=OpbMasterSignals.create(sim, f"{name}.dmaster",
                                                mode),
            mode=mode,
        )

    def all_signals(self) -> dict:
        """Every signal in the interconnect, prefixed by its group."""
        result = {}
        for prefix, bundle in (("bus", self.bus),
                               ("imaster", self.instruction_master),
                               ("dmaster", self.data_master)):
            for name, signal in bundle.all_signals().items():
                result[f"{prefix}.{name}"] = signal
        return result

    def state_children(self) -> dict:
        """Every wire, so the snapshot tree walk reaches all of them."""
        return self.all_signals()

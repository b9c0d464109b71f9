"""Bus models: the OPB at three abstraction levels, and the LMB.

The pin/cycle-accurate OPB machinery lives in :mod:`repro.bus.opb`; the
bus-abstraction seam (one transport interface, three interchangeable
fabrics) lives in :mod:`repro.bus.transport`.
"""

from .lmb import (BRAM_BASE_ADDRESS, BRAM_SIZE, LMB_ACCESS_CYCLES,
                  LocalMemoryBus)
from .opb import (DATA_MASTER, INSTRUCTION_MASTER, OpbArbiter, OpbMasterPort,
                  OpbSlave, WarpParticipant)
from .signals import OpbBusSignals, OpbInterconnect, OpbMasterSignals
from .transport import (BUS_FUNCTIONAL, BUS_SIGNAL, BUS_TRANSACTION,
                        BusTransport, FunctionalFabric, SignalFabric,
                        TransactionFabric, bus_levels, create_fabric,
                        protocol_transfer_cycles)

__all__ = [
    "BRAM_BASE_ADDRESS",
    "BRAM_SIZE",
    "BUS_FUNCTIONAL",
    "BUS_SIGNAL",
    "BUS_TRANSACTION",
    "BusTransport",
    "DATA_MASTER",
    "FunctionalFabric",
    "INSTRUCTION_MASTER",
    "LMB_ACCESS_CYCLES",
    "LocalMemoryBus",
    "OpbArbiter",
    "OpbBusSignals",
    "OpbInterconnect",
    "OpbMasterPort",
    "OpbMasterSignals",
    "OpbSlave",
    "SignalFabric",
    "TransactionFabric",
    "WarpParticipant",
    "bus_levels",
    "create_fabric",
    "protocol_transfer_cycles",
]

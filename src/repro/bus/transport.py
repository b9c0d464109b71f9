"""The bus-abstraction layer: one transport interface, three fabrics.

The paper's central result is that simulation speed is governed by the
modelling abstraction.  The interconnect of this repository was originally
modelled at exactly one abstraction level -- the pin/cycle-accurate OPB
signal protocol of :mod:`repro.bus.opb`.  This module adds the remaining
rungs of the abstraction ladder behind a single seam:

:class:`BusTransport`
    What bus masters and slaves actually need from the interconnect:
    ``read(master, addr, size)`` / ``write(master, addr, value, size)``
    issued by masters (as generators, so a transfer can consume simulated
    time), timing annotation, and slave registration.  The ISS wrapper is
    written against this interface only; which fabric executes a transfer
    is a configuration decision (``ModelConfig.bus_level``).

:class:`SignalFabric` (``bus_level="signal"``)
    An adapter over the pin-accurate machinery: transfers run through
    :class:`~repro.bus.opb.OpbMasterPort`, the arbiter grants them on the
    shared bus signals, and every slave's decode process watches
    ``select``/``address`` each cycle.  Bit-identical to the pre-seam
    behaviour.

:class:`TransactionFabric` (``bus_level="transaction"``)
    A TLM-style fabric: address decode, arbitration and the 3--4-cycle
    transfer latency are computed *arithmetically* and charged to the
    master as a single timed wait.  No arbiter process, no per-cycle slave
    decode processes, no signal toggling -- but the cycle annotation
    reproduces the signal protocol exactly (see
    :func:`protocol_transfer_cycles`), so architectural results (including
    timer-interrupt alignment and therefore retired-instruction counts)
    are identical.

:class:`FunctionalFabric` (``bus_level="functional"``)
    The functional rung: no interconnect model at all.  Memory-backed
    slaves (SDRAM/SRAM/FLASH) are served through a direct-memory-interface
    table resolved at registration time -- the ISS reads and writes the
    backing store without the slave object, with a single kernel entry for
    the whole annotated wait.  Register peripherals fall back to their
    transport-agnostic ``target_read``/``target_write`` hooks.

Timing-annotation contract
--------------------------
All three fabrics complete a transfer after the same number of clock
cycles.  The protocol cost, derived from the pin-accurate handshake, is::

    request -> grant        1 cycle   (arbiter samples the committed request)
    grant   -> xfer_ack     ``latency`` cycles (slave decode countdown), or
                            0 cycles for a *gated* slave (woken by the
                            arbiter in the grant delta, section 5.3)
    xfer_ack -> master      1 cycle   (master samples the committed ack)

so a transfer costs ``2 + latency`` cycles (``2`` for gated slaves) on
every fabric.  The fast fabrics additionally perform the slave access at
the same clock edge the pin-accurate slave would (one wait before the
access, one after), so even reads of cycle-varying peripheral state --
UART status during a drain, the free-running timer counter -- return the
same values.  This is what makes the cross-fabric identity contract hold
on *every* Figure 2 variant: same instructions retired, same console
output, same register state, same cycle count.
"""

from __future__ import annotations

from ..datatypes import byte_lane_mask
from ..kernel.component import SCOPE_BUS_LEVEL, SimComponent
from ..kernel.errors import ModelError
from .opb import DATA_MASTER, INSTRUCTION_MASTER, OpbMasterPort

#: Bus-level selector values understood by the platform layer's
#: ``ModelConfig.bus_level`` field (mirrors the ``ENGINE_*`` selectors).
BUS_SIGNAL = "signal"
BUS_TRANSACTION = "transaction"
BUS_FUNCTIONAL = "functional"

#: Cycles between a master committing its request and the grant becoming
#: visible (the arbiter samples the request on the following clock edge).
REQUEST_TO_GRANT_CYCLES = 1

#: Cycles between the slave committing ``xfer_ack`` and the master
#: observing it (the master samples the ack on the following clock edge).
ACK_TO_MASTER_CYCLES = 1

#: Page size and largest window of the slave index: whole 256-byte pages
#: make up every register peripheral's window, the largest 4 KB.
_PAGE = 0x100
_LARGEST_INDEXED = 0x1000


def bus_levels() -> tuple[str, ...]:
    """All bus-level selector names, signal (reference) first."""
    return (BUS_SIGNAL, BUS_TRANSACTION, BUS_FUNCTIONAL)


def protocol_transfer_cycles(latency: int, gated: bool = False) -> int:
    """Total master-observed cycles of one pin-accurate OPB transfer.

    ``latency`` is the slave's decode countdown
    (:attr:`~repro.bus.opb.OpbSlave.latency`); a *gated* slave is woken by
    the arbiter in the grant delta and therefore acknowledges in the grant
    cycle itself.
    """
    slave_cycles = 0 if gated else latency
    return REQUEST_TO_GRANT_CYCLES + slave_cycles + ACK_TO_MASTER_CYCLES


class BusTransport(SimComponent):
    """The transport seam between bus masters and an interconnect fabric.

    Masters issue transfers as generators -- ``value, cycles = yield from
    transport.read(master_id, address, size)`` -- from a thread process
    statically sensitive to the bus clock's positive edge.  A fabric
    consumes exactly the simulated time the pin-accurate protocol would
    (see the module docstring) and returns the cycle count so the caller
    can account it against the instruction.

    Slaves attach through :meth:`register_slave`; what "attached" means is
    fabric-specific (signal: the slave's own decode process watches the
    shared wires; transaction/functional: the fabric routes to the slave's
    ``target_read``/``target_write`` hooks or its backing store).
    """

    kind = "abstract"

    #: Fabric counters mirror protocol activity at one abstraction level;
    #: they do not transfer across bus levels (see ``kernel/component.py``).
    state_scope = SCOPE_BUS_LEVEL

    def __init__(self) -> None:
        #: Slaves attached to this fabric, in registration order.
        self.slaves: list = []
        #: Register windows by ``address // _PAGE`` (see
        #: :meth:`register_slave`).
        self._pages: dict = {}
        #: Completed transfers and total cycles spent, for statistics.
        self.transfer_count = 0
        self.cycles_spent = 0
        #: Transfers broken down by master id.
        self.per_master_transfers = {INSTRUCTION_MASTER: 0, DATA_MASTER: 0}

    # -- wiring ---------------------------------------------------------------
    def register_slave(self, slave) -> None:
        """Attach a slave (an :class:`~repro.bus.opb.OpbSlave`).

        A window of whole pages up to ``_LARGEST_INDEXED`` bytes (every
        register peripheral's) is indexed page by page, so
        :meth:`slave_for` finds it with one dictionary lookup; memories
        are found by a scan.
        """
        self.slaves.append(slave)
        if slave.base_address % _PAGE == 0 and slave.size % _PAGE == 0 \
                and slave.size <= _LARGEST_INDEXED:
            for page in range(slave.base_address // _PAGE,
                              slave.end_address // _PAGE):
                self._pages[page] = slave

    def slave_for(self, address: int):
        """The attached slave claiming ``address``; None when unmapped."""
        slave = self._pages.get(address // _PAGE)
        if slave is not None:
            return None if slave.detached else slave
        for slave in self.slaves:
            if not slave.detached and slave.claims(address):
                return slave
        return None

    # -- transfers (generators; the master runs them with ``yield from``) -----
    def read(self, master_id: int, address: int, size: int = 4):
        """Read ``size`` bytes; returns ``(value, cycles)``."""
        raise NotImplementedError

    def write(self, master_id: int, address: int, value: int,
              size: int = 4):
        """Write ``size`` bytes; returns the cycle cost."""
        raise NotImplementedError

    # -- zero-time direct access (the temporal-decoupling seam) ---------------
    def direct_read(self, master_id: int, address: int, size: int = 4):
        """Serve a read *without consuming simulated time*, if possible.

        Returns ``(value, cycles)`` when the fabric can complete the access
        with no side effect other than the backing store's, or ``None``
        when the access needs the timed transfer path (cycle-varying
        peripheral state, pin-level protocol).  Only the functional
        fabric's DMI regions qualify; the quantum-mode ISS wrapper fetches
        through it and breaks its time quantum whenever this returns
        ``None``.
        """
        return None

    # -- checkpoint / restore -------------------------------------------------
    def capture_state(self) -> dict:
        """Base transfer counters (subclasses add their own)."""
        return {
            "kind": self.kind,
            "transfer_count": self.transfer_count,
            "cycles_spent": self.cycles_spent,
            "per_master_transfers": dict(self.per_master_transfers),
        }

    def restore_state(self, state: dict) -> None:
        """Restore the counters (``kind`` is informational only)."""
        self.transfer_count = state["transfer_count"]
        self.cycles_spent = state["cycles_spent"]
        self.per_master_transfers.clear()
        self.per_master_transfers.update(state["per_master_transfers"])

    # -- statistics -----------------------------------------------------------
    def _account(self, master_id: int, cycles: int, count: int = 1) -> None:
        self.transfer_count += count
        self.cycles_spent += cycles
        self.per_master_transfers[master_id] = \
            self.per_master_transfers.get(master_id, 0) + count

    def describe(self) -> str:
        """One-line human-readable description of the fabric."""
        return f"{self.kind} fabric, {len(self.slaves)} slaves"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(slaves={len(self.slaves)}, "
                f"transfers={self.transfer_count})")


class SignalFabric(BusTransport):
    """Adapter over the pin/cycle-accurate OPB machinery.

    Transfers are driven signal by signal through the per-master
    :class:`~repro.bus.opb.OpbMasterPort`; arbitration and slave decode
    happen in their own clocked processes exactly as before the transport
    seam existed.
    """

    kind = BUS_SIGNAL

    def __init__(self, instruction_port: OpbMasterPort,
                 data_port: OpbMasterPort, arbiter=None) -> None:
        super().__init__()
        self._ports = {INSTRUCTION_MASTER: instruction_port,
                       DATA_MASTER: data_port}
        #: The arbiter module (kept for statistics introspection).
        self.arbiter = arbiter

    def port_for(self, master_id: int) -> OpbMasterPort:
        """The master port driving transfers for ``master_id``."""
        try:
            return self._ports[master_id]
        except KeyError:
            raise ModelError(f"unknown bus master id {master_id}") from None

    def read(self, master_id: int, address: int, size: int = 4):
        value, cycles = yield from self.port_for(master_id).transfer(
            address, None, size)
        self._account(master_id, cycles)
        return value, cycles

    def write(self, master_id: int, address: int, value: int,
              size: int = 4):
        __, cycles = yield from self.port_for(master_id).transfer(
            address, value, size)
        self._account(master_id, cycles)
        return cycles


class TransactionFabric(BusTransport):
    """Cycle-approximate TLM-style fabric: arithmetic arbitration + latency.

    One transfer costs the master two kernel entries (a timed wait to the
    slave-access edge, then the realignment to the next edge) instead of
    one per cycle -- and costs the rest of the platform *nothing*: no
    arbiter activation, no slave decode activations, no signal updates.

    The slave access runs at the same clock edge the pin-accurate decode
    process would perform it (before that edge's clocked processes
    observe or mutate peripheral state), so reads of cycle-varying
    registers return identical values.
    """

    kind = BUS_TRANSACTION

    def __init__(self, clock) -> None:
        super().__init__()
        self.clock = clock
        #: Transfers granted (mirrors ``OpbArbiter.transactions_granted``).
        self.transactions_granted = 0
        #: Transfers broken down by master id (arbiter-compatible).
        self.per_master_transactions = {INSTRUCTION_MASTER: 0,
                                        DATA_MASTER: 0}

    # -- decode + annotation --------------------------------------------------
    def _target(self, address: int, master_id: int):
        slave = self.slave_for(address)
        if slave is None:
            raise ModelError(
                f"{self.kind} fabric: no slave claims address "
                f"{address:#010x} (master id {master_id})")
        return slave

    def _grant(self, master_id: int, count: int = 1) -> None:
        self.transactions_granted += count
        self.per_master_transactions[master_id] = \
            self.per_master_transactions.get(master_id, 0) + count

    def _annotated_wait(self, slave):
        """Simulated time from the request edge to the slave-access edge."""
        pre_access = REQUEST_TO_GRANT_CYCLES \
            + (0 if slave.gated else slave.latency)
        return self.clock.period_ps * pre_access, pre_access

    def account_target(self, master_id: int, transfers: int,
                       cycles: int) -> None:
        """Book ``transfers`` slave-hook transfers of ``cycles`` cycles in
        total that the master performed itself through the slaves'
        ``target_read``/``target_write`` (the ISS's quantum warp and its
        compiled traces), exactly as that many :meth:`read`/:meth:`write`
        calls would."""
        self._grant(master_id, transfers)
        self._account(master_id, cycles, transfers)

    # -- checkpoint / restore -------------------------------------------------
    def capture_state(self) -> dict:
        state = super().capture_state()
        state["transactions_granted"] = self.transactions_granted
        state["per_master_transactions"] = dict(self.per_master_transactions)
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.transactions_granted = state["transactions_granted"]
        self.per_master_transactions.clear()
        self.per_master_transactions.update(state["per_master_transactions"])

    # -- transfers ------------------------------------------------------------
    def read(self, master_id: int, address: int, size: int = 4):
        byte_lane_mask(address, size)       # alignment validation
        slave = self._target(address, master_id)
        self._grant(master_id)
        wait_ps, pre_access = self._annotated_wait(slave)
        yield wait_ps
        value = slave.target_read(address, size)
        # Realign to the clock-edge delta (free: the posedge of the access
        # edge has not been dispatched yet), then consume the ack cycle.
        yield None
        yield None
        cycles = pre_access + ACK_TO_MASTER_CYCLES
        self._account(master_id, cycles)
        return value, cycles

    def write(self, master_id: int, address: int, value: int,
              size: int = 4):
        byte_lane_mask(address, size)       # alignment validation
        slave = self._target(address, master_id)
        self._grant(master_id)
        wait_ps, pre_access = self._annotated_wait(slave)
        yield wait_ps
        slave.target_write(address, value, size)
        yield None
        yield None
        cycles = pre_access + ACK_TO_MASTER_CYCLES
        self._account(master_id, cycles)
        return cycles


class FunctionalFabric(TransactionFabric):
    """Untimed-style functional fabric with a direct-memory interface.

    No interconnect is modelled at all.  Memory-backed slaves are resolved
    to their :class:`~repro.peripherals.memory.MemoryStorage` once, at
    registration time; an access inside such a region reads or writes the
    backing store directly -- the slave object is never entered and the
    whole annotated wait costs a single kernel entry.  Register
    peripherals keep the transaction-level path (their state is
    cycle-varying, so the access must run at the protocol's access edge).

    The cycle *annotation* is retained (see the module docstring) so the
    functional fabric stays architecturally comparable with the other two
    across the full variant matrix.
    """

    kind = BUS_FUNCTIONAL

    def __init__(self, clock) -> None:
        super().__init__(clock)
        #: Direct-memory regions: (base, end, storage, owning slave).
        self._dmi: list[tuple[int, int, object, object]] = []
        #: Accesses served through the DMI table / via target hooks.
        self.dmi_hits = 0
        self.target_accesses = 0

    def register_slave(self, slave) -> None:
        super().register_slave(slave)
        storage = getattr(slave, "storage", None)
        if storage is not None:
            self._dmi.append((slave.base_address, slave.end_address,
                              storage, slave))

    def dmi_region(self, address: int):
        """The (storage, slave) pair serving ``address``, or (None, None)."""
        for base, end, storage, slave in self._dmi:
            if base <= address < end and not slave.detached:
                return storage, slave
        return None, None

    # -- checkpoint / restore -------------------------------------------------
    def capture_state(self) -> dict:
        state = super().capture_state()
        state["dmi_hits"] = self.dmi_hits
        state["target_accesses"] = self.target_accesses
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.dmi_hits = state["dmi_hits"]
        self.target_accesses = state["target_accesses"]

    def read(self, master_id: int, address: int, size: int = 4):
        byte_lane_mask(address, size)
        storage, slave = self.dmi_region(address)
        if storage is None:
            value, cycles = yield from TransactionFabric.read(
                self, master_id, address, size)
            self.target_accesses += 1
            return value, cycles
        self._grant(master_id)
        value = storage.read(address, size)
        self.dmi_hits += 1
        cycles = protocol_transfer_cycles(slave.latency, slave.gated)
        yield self.clock.period_ps * cycles
        yield None                      # realign to the clock-edge delta
        self._account(master_id, cycles)
        return value, cycles

    def write(self, master_id: int, address: int, value: int,
              size: int = 4):
        byte_lane_mask(address, size)
        storage, slave = self.dmi_region(address)
        if storage is None:
            cycles = yield from TransactionFabric.write(
                self, master_id, address, value, size)
            self.target_accesses += 1
            return cycles
        self._grant(master_id)
        if not storage.read_only:
            # Writes to read-only backing stores (FLASH) are dropped, as
            # on the pin-accurate path.
            storage.write(address, value, size)
        self.dmi_hits += 1
        cycles = protocol_transfer_cycles(slave.latency, slave.gated)
        yield self.clock.period_ps * cycles
        yield None
        self._account(master_id, cycles)
        return cycles

    # -- zero-time direct access ----------------------------------------------
    def direct_read(self, master_id: int, address: int, size: int = 4):
        """DMI read with the identical grant/account/cycle bookkeeping as
        :meth:`read`, but no kernel interaction; None outside DMI."""
        byte_lane_mask(address, size)
        storage, slave = self.dmi_region(address)
        if storage is None:
            return None
        self._grant(master_id)
        value = storage.read(address, size)
        self.dmi_hits += 1
        cycles = protocol_transfer_cycles(slave.latency, slave.gated)
        self._account(master_id, cycles)
        return value, cycles

    def account_direct(self, master_id: int, transfers: int,
                       cycles: int) -> None:
        """Book ``transfers`` DMI transfers of ``cycles`` cycles in total at
        once, exactly as that many DMI hits of :meth:`read`/:meth:`write`
        would, without the kernel.  The quantum-level ISS serves its data
        accesses from the :meth:`dmi_region` store itself and books them
        here, one per access or batched per compiled-trace exit."""
        self._grant(master_id, transfers)
        self.dmi_hits += transfers
        self._account(master_id, cycles, transfers)

    def account_target(self, master_id: int, transfers: int,
                       cycles: int) -> None:
        super().account_target(master_id, transfers, cycles)
        self.target_accesses += transfers


def create_fabric(kind: str, **kwargs) -> BusTransport:
    """Instantiate a fabric by selector name.

    ``"signal"`` expects ``instruction_port``/``data_port`` (and optional
    ``arbiter``); ``"transaction"`` and ``"functional"`` expect ``clock``.
    """
    if kind == BUS_SIGNAL:
        return SignalFabric(**kwargs)
    if kind == BUS_TRANSACTION:
        return TransactionFabric(**kwargs)
    if kind == BUS_FUNCTIONAL:
        return FunctionalFabric(**kwargs)
    raise ModelError(f"unknown bus level {kind!r}; "
                     f"expected one of {sorted(bus_levels())}")

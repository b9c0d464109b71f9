"""Ethernet MAC: register proxy, promoted to a functional frame MAC.

The paper (section 4) models the Ethernet MAC as "a proxy that implements
only the OPB interface and peripheral control registers" -- no frame
transfer, just a small register file so the uClinux-style driver probe
completes.  That behaviour is preserved *bit-identically* whenever no
link is attached: reads and writes take exactly the original code path,
so every single-node Figure 2 variant is unchanged.

Attaching a :class:`~repro.platform.cluster.NetworkSwitch` (via
``link.attach(mac)``) promotes the proxy into a functional MAC:

* a TX staging FIFO filled word-by-word through ``TX_DATA`` and committed
  to the link by writing the frame's byte length to ``TX_GO``,
* an RX frame queue (depth :data:`EthernetMacProxy.RX_QUEUE_DEPTH`) read
  word-by-word through ``RX_DATA`` after checking ``RX_LEN``, and
  released with ``RX_ACK``,
* a level interrupt through the platform ``intc`` (input
  ``IRQ_ETHERNET``): asserted while the RX queue is non-empty and
  ``CONTROL.RX_IE`` is set.

``STATUS`` keeps its write-one-to-clear semantics; with a link attached
bit 3 (``RX availability``) is derived from the queue and bit 4 reports a
sticky RX overflow (frame dropped because the queue was full).
"""

from __future__ import annotations

from collections import deque

from ..bus.opb import WARP_FLUSH, WARP_RETRY, OpbSlave
from ..bus.signals import OpbInterconnect
from ..bus.transport import ACK_TO_MASTER_CYCLES, REQUEST_TO_GRANT_CYCLES
from ..datatypes import WORD_MASK
from ..kernel.engine import SimulationEngine
from ..signals import Signal


class EthernetMacProxy(OpbSlave):
    """OPB Ethernet MAC: register proxy, functional when a link is attached."""

    latency = 1

    #: Register offsets touched by the boot-time driver probe.
    REG_CONTROL = 0x00
    REG_STATUS = 0x04
    REG_MAC_HIGH = 0x08
    REG_MAC_LOW = 0x0C
    REG_TX_STATUS = 0x10
    REG_RX_STATUS = 0x14
    #: Frame-transfer registers, live only while a link is attached.
    REG_TX_DATA = 0x18
    REG_TX_GO = 0x1C
    REG_RX_DATA = 0x20
    REG_RX_LEN = 0x24
    REG_RX_ACK = 0x28

    #: CONTROL bit: raise the interrupt line while RX frames are queued.
    CONTROL_RX_IE = 0x4
    #: STATUS bit 3: at least one received frame is waiting (derived).
    STATUS_RX_AVAILABLE = 0x8
    #: STATUS bit 4: a frame was dropped on a full RX queue (sticky, W1C).
    STATUS_RX_OVERFLOW = 0x10

    #: Received frames queued before the MAC starts dropping.
    RX_QUEUE_DEPTH = 8
    #: Largest frame the TX staging FIFO accepts, in 32-bit words.
    MAX_FRAME_WORDS = 380  # ~1520 bytes, an Ethernet MTU frame

    #: Status value reporting "link up, FIFOs empty" so the driver probes
    #: cleanly and then leaves the device alone.
    _DEFAULT_STATUS = 0x0000_0005

    def __init__(self, sim: SimulationEngine, name: str, base_address: int,
                 interconnect: OpbInterconnect, clock,
                 **slave_options) -> None:
        super().__init__(sim, name, base_address, 0x1000, interconnect,
                         clock, **slave_options)
        self.registers = {
            self.REG_CONTROL: 0,
            self.REG_STATUS: self._DEFAULT_STATUS,
            self.REG_MAC_HIGH: 0x0000_00A0,
            self.REG_MAC_LOW: 0x3512_6001,
            self.REG_TX_STATUS: 0,
            self.REG_RX_STATUS: 0,
        }
        self.interrupt = Signal(sim, f"{name}.interrupt", 0)
        #: Defers CPU-store-driven interrupt level changes by one delta.
        #: The fast fabrics run ``target_write`` *before* the access
        #: edge's clocked processes dispatch, so an immediate
        #: ``interrupt.write`` there would be latched by the interrupt
        #: controller's same-edge poll -- one cycle earlier than on the
        #: signal fabric, where the decode process performs the write
        #: during the edge and the deferred signal update is only
        #: visible to the *next* poll.  Routing store-driven updates
        #: through a delta notification lands them after the current
        #: edge's poll on every fabric.  Link deliveries keep the
        #: immediate path: their timing is fabric-independent already.
        self._interrupt_refresh = sim.create_event(f"{name}.irq_refresh")
        sim.spawn_method(f"{name}.irq_refresh", self._update_interrupt,
                         sensitive=(self._interrupt_refresh,),
                         dont_initialize=True)
        #: Count of driver accesses (shows how rare this peripheral's
        #: traffic is, motivating the gating optimisation).
        self.access_count = 0
        #: The attached :class:`NetworkSwitch` (None on single-node
        #: platforms -- the register file then behaves exactly as the
        #: paper's probe-only proxy).
        self.link = None
        #: Endpoint index on the link, assigned by ``link.attach``.
        self.link_port: int | None = None
        #: Simulated time a temporally-decoupled master's ``TX_GO`` landed
        #: on (ahead of the kernel clock); None outside a warp, so normal
        #: per-cycle commits use the kernel's notion of *now*.
        self.tx_commit_ps: int | None = None
        #: The CPU wrapper that is the only bus master able to reach this
        #: MAC's ``TX_GO`` (set by the owning platform).  Lets the link
        #: fabric chain delivery horizons off the master's parked-ahead
        #: position instead of the kernel clock.
        self.tx_master = None
        #: TX staging FIFO (words written through ``TX_DATA``).
        self._tx_staging: list[int] = []
        #: A warp's current delivery horizon and latched RX level.
        self._warp_horizon: int | None = None
        self._irq_high = False
        #: Received frames awaiting software, oldest first.
        self._rx_frames: deque[bytes] = deque()
        #: Word cursor into the head RX frame.
        self._rx_cursor = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_dropped = 0

    # -- link fabric interface ----------------------------------------------
    def attach_link(self, link, port: int) -> None:
        """Called by the link fabric; promotes the proxy to a full MAC."""
        self.link = link
        self.link_port = port

    def deliver_frame(self, payload: bytes) -> None:
        """Link-side delivery of one frame into the RX queue."""
        if len(self._rx_frames) >= self.RX_QUEUE_DEPTH:
            self.frames_dropped += 1
            self.registers[self.REG_STATUS] |= self.STATUS_RX_OVERFLOW
            return
        self._rx_frames.append(payload)
        self.frames_received += 1
        self.registers[self.REG_RX_STATUS] = self.frames_received & WORD_MASK
        self._update_interrupt()

    @property
    def rx_interrupt_enabled(self) -> bool:
        return bool(self.registers[self.REG_CONTROL] & self.CONTROL_RX_IE)

    @property
    def rx_pending(self) -> bool:
        """True while a received frame waits in the RX queue."""
        return bool(self._rx_frames)

    def delivery_conditions(self, address: int, store: bool):
        """What lets this access be served ahead of a frame delivery.

        A frame may land at the link's next delivery time, and per-cycle
        accesses on that edge already see it.  An access served on or
        after that edge before the delivery is exact only if the delivery
        changes neither what it reads nor what it does.  Deliveries
        append behind the head of the RX queue, so the head-frame reads
        (``RX_LEN``, ``RX_DATA``) are exact while a frame is queued, and
        reads of ``CONTROL``, the MAC address and ``TX_STATUS``, which
        deliveries never touch, need nothing.  Every other read (the
        emptiness and count observers ``STATUS`` and ``RX_STATUS`` among
        them) waits, and so do the stores that pop the head or clear the
        sticky overflow (``RX_ACK``, ``STATUS``).  Returns the names of
        the properties that must be true (``()`` for none), or None when
        the access waits for the delivery.
        """
        offset = (address - self.base_address) & 0xFFC
        if store:
            if offset in (self.REG_RX_ACK, self.REG_STATUS):
                return None
            return ()
        if offset in (self.REG_RX_DATA, self.REG_RX_LEN):
            return ("rx_pending",)
        if offset in (self.REG_CONTROL, self.REG_MAC_HIGH, self.REG_MAC_LOW,
                      self.REG_TX_STATUS):
            return ()
        return None

    def served_ahead_of_delivery(self, address: int, store: bool) -> bool:
        """True when :meth:`delivery_conditions` lets this access be
        served now, ahead of a delivery due on or before its edge."""
        conditions = self.delivery_conditions(address, store)
        if conditions is None:
            return False
        for name in conditions:
            if not getattr(self, name):
                return False
        return True

    def warp_serves(self, address: int, value) -> bool:
        """Every access but a linked MAC's ``CONTROL`` store that enables
        ``RX_IE`` while a frame is queued: that raises the RX interrupt on
        the store's own cycle.  The probe-only proxy has no interrupt path
        at all."""
        return not (self._enables_rx_interrupt(address, value)
                    and self.rx_pending)

    def warp_access(self, address: int, value, size: int, edge_ps: int):
        """Perform an access ahead of the clock, at ``edge_ps``.

        On or past the delivery horizon it waits (``WARP_RETRY``) unless
        :meth:`delivery_conditions` lets it go ahead of a delivery, and an
        ``RX_IE`` enable always waits: a frame delivered before it would
        raise the interrupt.  Served ahead of the horizon, that enable
        leaves the level low, so the write itself is edge-invisible; the
        master surfaces right after it (``WARP_FLUSH``) so its next
        sub-burst is bounded by the horizon.  A ``TX_GO`` commits its frame
        at ``edge_ps``, so the link derives the per-cycle due time.
        """
        store = value is not None
        enabling = self._enables_rx_interrupt(address, value)
        horizon_ps = self._warp_horizon
        if horizon_ps is not None and edge_ps >= horizon_ps and (
                enabling or not self.served_ahead_of_delivery(address, store)):
            return WARP_RETRY
        if not store:
            return self.target_read(address, size)
        self.tx_commit_ps = edge_ps
        try:
            self.target_write(address, value, size)
        finally:
            self.tx_commit_ps = None
        return WARP_FLUSH if enabling else None

    # -- warp participant (a quantum-level CPU running ahead) ----------------
    # No frame arrives before the link's ``earliest_delivery_ps``.  While
    # ``RX_IE`` is set a warp surfaces there, so a delivery interrupts on
    # the per-cycle cycle; while it is clear only the RX-observing accesses
    # wait for it (:meth:`warp_access`).
    def warp_ready(self, servicing: bool) -> bool:
        """With ``RX_IE`` set, a cycle must fit before the next delivery."""
        if self.link is None or not self.rx_interrupt_enabled:
            return True
        return self.link.earliest_delivery_ps(self.link_port) \
            - self.sim.time_ps >= self.clock.period_ps

    def park(self) -> None:
        # Only a rise from low has timing to protect: a high level (being
        # serviced, or IER-masked) stays high through new deliveries.
        self._irq_high = bool(self.interrupt.value)
        self._warp_horizon = None

    def warp_horizon_ps(self):
        """The next possible delivery, kept for :meth:`warp_access`; or,
        once the warp surfaced and a delivery raised the RX interrupt (or
        is about to), now, so the warp ends and the controller latches it
        on this edge.  The latch follows the level: a warp may span the
        handler's mask and the bottom half's re-enable, and a fall behind
        the mask makes later rises visible again."""
        if self.link is None:
            return None
        irq = self.interrupt
        if self._warp_horizon is not None:
            if not self._irq_high and (irq.value or irq.pending_value):
                return self.sim.time_ps
            self._irq_high = bool(irq.pending_value)
        self._warp_horizon = self.link.earliest_delivery_ps(self.link_port)
        return self._warp_horizon if self.rx_interrupt_enabled else None

    def _enables_rx_interrupt(self, address: int, value) -> bool:
        """True for a linked MAC's store that sets ``CONTROL.RX_IE``."""
        return self.link is not None and value is not None \
            and bool(value & self.CONTROL_RX_IE) \
            and not self.rx_interrupt_enabled \
            and (address - self.base_address) & 0xFFC == self.REG_CONTROL

    def trace_conditions(self, address: int, size: int, store: bool):
        """Whether a compiled ISS trace may serve this access itself.

        A trace runs ahead of the link's next delivery without checking
        time, so it guards each access it serves with the access's
        :meth:`delivery_conditions`.  Only the FIFO data ports of a linked
        MAC qualify, as aligned words: a ``TX_DATA`` store only appends to
        the staging FIFO and an ``RX_DATA`` load only reads the head
        frame, so neither moves an interrupt edge or a commit time.
        Returns the names of the properties the trace must find true
        before the access (``()`` for none), or None when the access stays
        on the per-instruction path.
        """
        if self.link is None or size != 4:
            return None
        offset = address - self.base_address
        if offset != (self.REG_TX_DATA if store else self.REG_RX_DATA):
            return None
        return self.delivery_conditions(address, store)

    def tx_commit_floor_ps(self, now: int) -> int:
        """Earliest simulated time this MAC could commit a *new* frame.

        ``now`` for an actively executing master; the parked-ahead resume
        time while the master is warped past the kernel clock (it promised
        to initiate nothing earlier); effectively never for a finished
        (halted) master.  Frames already committed are not covered -- they
        sit in the link's in-flight list with their own due times.

        A parked master resumes *between* instructions, so a new commit
        additionally needs at least the ``TX_GO`` store's fetch (1 cycle
        on the fastest path) plus the bus request-to-grant delay before
        the write can land on this register file -- and, while the TX
        staging FIFO is empty, a complete ``TX_DATA`` store before that
        (a ``TX_GO`` with nothing staged transmits nothing).  Folding
        that structural minimum into the floor widens every peer's warp
        horizon by the same amount.
        """
        master = self.tx_master
        if master is None:
            return now
        if master.finished:
            # A halted CPU transmits nothing more; 2**62 ps is ~52 days of
            # simulated time, far past any run window.
            return 1 << 62
        floor = master.decoupled_until_ps
        if floor is None or floor < now:
            return now
        margin = 1 + REQUEST_TO_GRANT_CYCLES
        if not self._tx_staging:
            margin += 1 + REQUEST_TO_GRANT_CYCLES + ACK_TO_MASTER_CYCLES
        return floor + margin * self.clock.period_ps

    def _update_interrupt(self) -> None:
        level = 1 if (self._rx_frames and self.rx_interrupt_enabled) else 0
        if self.interrupt.pending_value != level:
            self.interrupt.write(level)

    # -- checkpoint / restore -----------------------------------------------
    def capture_state(self) -> dict:
        """Plain-data snapshot of the register file and FIFOs (the
        interrupt line is a state child)."""
        return {
            "registers": dict(self.registers),
            "access_count": self.access_count,
            "transactions": self.transactions,
            "tx_staging": list(self._tx_staging),
            "rx_frames": [bytes(frame) for frame in self._rx_frames],
            "rx_cursor": self._rx_cursor,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "frames_dropped": self.frames_dropped,
        }

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`capture_state` output."""
        self.registers.clear()
        self.registers.update(state["registers"])
        self.access_count = state["access_count"]
        self.transactions = state["transactions"]
        self._tx_staging = list(state["tx_staging"])
        self._rx_frames = deque(bytes(frame) for frame in state["rx_frames"])
        self._rx_cursor = state["rx_cursor"]
        self.frames_sent = state["frames_sent"]
        self.frames_received = state["frames_received"]
        self.frames_dropped = state["frames_dropped"]

    def state_children(self) -> dict:
        return {"interrupt": self.interrupt}

    # -- register file -------------------------------------------------------
    def read_register(self, offset: int, size: int) -> int:
        self.access_count += 1
        if self.link is not None:
            return self._linked_read(offset & 0xFFC)
        return self.registers.get(offset & 0xFFC, 0)

    def write_register(self, offset: int, value: int, size: int) -> None:
        self.access_count += 1
        offset &= 0xFFC
        if self.link is not None \
                and offset in (self.REG_TX_DATA, self.REG_TX_GO,
                               self.REG_RX_ACK, self.REG_CONTROL):
            self._linked_write(offset, value & WORD_MASK)
            return
        if offset == self.REG_STATUS:
            # Write-one-to-clear semantics for status bits.
            self.registers[self.REG_STATUS] &= ~value & WORD_MASK
            return
        self.registers[offset] = value & WORD_MASK

    # -- frame protocol (link attached only) ---------------------------------
    def _linked_read(self, offset: int) -> int:
        if offset == self.REG_STATUS:
            status = self.registers[self.REG_STATUS]
            if self._rx_frames:
                status |= self.STATUS_RX_AVAILABLE
            return status
        if offset == self.REG_RX_LEN:
            return len(self._rx_frames[0]) if self._rx_frames else 0
        if offset == self.REG_RX_DATA:
            return self._pop_rx_word()
        return self.registers.get(offset, 0)

    def _linked_write(self, offset: int, value: int) -> None:
        if offset == self.REG_CONTROL:
            self.registers[self.REG_CONTROL] = value
            self._interrupt_refresh.notify_delta()
        elif offset == self.REG_TX_DATA:
            if len(self._tx_staging) < self.MAX_FRAME_WORDS:
                self._tx_staging.append(value)
        elif offset == self.REG_TX_GO:
            self._transmit(value)
        elif offset == self.REG_RX_ACK:
            if self._rx_frames:
                self._rx_frames.popleft()
            self._rx_cursor = 0
            self._interrupt_refresh.notify_delta()

    def _transmit(self, byte_length: int) -> None:
        staged = b"".join(word.to_bytes(4, "big")
                          for word in self._tx_staging)
        self._tx_staging.clear()
        length = min(byte_length, len(staged))
        if length == 0:
            return
        self.frames_sent += 1
        self.registers[self.REG_TX_STATUS] = self.frames_sent & WORD_MASK
        self.link.transmit(self, staged[:length],
                           commit_ps=self.tx_commit_ps)

    def _pop_rx_word(self) -> int:
        if not self._rx_frames:
            return 0
        frame = self._rx_frames[0]
        chunk = frame[self._rx_cursor:self._rx_cursor + 4]
        self._rx_cursor += 4
        return int.from_bytes(chunk.ljust(4, b"\x00"), "big")

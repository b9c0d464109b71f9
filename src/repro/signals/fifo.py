"""Bounded FIFO channel (``sc_fifo``).

Used by the UART models to buffer characters between the bus-facing side
and the host-terminal side.  Reads are *consuming*, which is why the
paper's reduced-port-reading optimisation explicitly does not apply to FIFO
ports (section 4.4).

The FIFO provides non-blocking operations plus the events thread processes
need to implement blocking behaviour with ``yield``:

    while not fifo.nb_write(ch):
        yield fifo.data_read_event()
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Optional, TypeVar

from ..kernel.component import SimComponent
from ..kernel.events import Event
from ..kernel.engine import SimulationEngine

ItemT = TypeVar("ItemT")


class Fifo(SimComponent, Generic[ItemT]):
    """A bounded first-in first-out channel."""

    def __init__(self, sim: SimulationEngine, name: str, depth: int = 16) -> None:
        if depth <= 0:
            raise ValueError("FIFO depth must be positive")
        self.sim = sim
        self.name = name
        self.depth = depth
        self._items: Deque[ItemT] = deque()
        self._data_written_event = Event(sim, f"{name}.data_written")
        self._data_read_event = Event(sim, f"{name}.data_read")
        #: Total number of items ever written (for statistics).
        self.total_written = 0
        #: Total number of items ever read.
        self.total_read = 0

    # -- capacity -----------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of items currently stored."""
        return len(self._items)

    @property
    def free(self) -> int:
        """Number of free slots."""
        return self.depth - len(self._items)

    @property
    def empty(self) -> bool:
        """True when nothing is stored."""
        return not self._items

    @property
    def full(self) -> bool:
        """True when no free slot remains."""
        return len(self._items) >= self.depth

    # -- non-blocking operations ------------------------------------------------
    def nb_write(self, item: ItemT) -> bool:
        """Write ``item`` if space is available; return success."""
        if self.full:
            return False
        self._items.append(item)
        self.total_written += 1
        self._data_written_event.notify_delta()
        return True

    def nb_read(self) -> Optional[ItemT]:
        """Read and consume the oldest item, or ``None`` when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self.total_read += 1
        self._data_read_event.notify_delta()
        return item

    def peek(self) -> Optional[ItemT]:
        """Look at the oldest item without consuming it."""
        if not self._items:
            return None
        return self._items[0]

    def drain(self) -> list[ItemT]:
        """Read every stored item at once (testbench convenience)."""
        items = list(self._items)
        self.total_read += len(items)
        self._items.clear()
        if items:
            self._data_read_event.notify_delta()
        return items

    # -- checkpoint / restore ------------------------------------------------
    def capture_state(self) -> dict:
        """The stored items, oldest first, and the totals."""
        return {"items": list(self._items),
                "total_written": self.total_written,
                "total_read": self.total_read}

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`capture_state` output (no event is notified)."""
        self._items.clear()
        self._items.extend(state["items"])
        self.total_written = state["total_written"]
        self.total_read = state["total_read"]

    # -- events ----------------------------------------------------------------
    def data_written_event(self) -> Event:
        """Notified (delta) whenever an item is written."""
        return self._data_written_event

    def data_read_event(self) -> Event:
        """Notified (delta) whenever an item is read."""
        return self._data_read_event

    def default_event(self) -> Event:
        """Alias for :meth:`data_written_event` (sensitivity convenience)."""
        return self._data_written_event

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Fifo({self.name!r}, {len(self._items)}/{self.depth})"

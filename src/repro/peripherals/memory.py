"""Byte-addressable memory storage.

:class:`MemoryStorage` is the backing store shared by every memory model in
the platform (BRAM, SDRAM, SRAM, FLASH).  The bus-facing peripherals wrap a
storage instance and add cycle behaviour; the memory dispatcher (paper
sections 5.1/5.2) and the kernel-function interceptor (section 5.4) access
the same storage directly, which is exactly how the paper's memory
dispatcher "can directly access the memory models inside the peripherals".

MicroBlaze is big-endian; all multi-byte accesses here are big-endian.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..datatypes import mask
from ..kernel.component import SimComponent
from ..kernel.errors import AddressError, AlignmentError


class MemoryStorage(SimComponent):
    """A contiguous byte array with word/halfword/byte accessors."""

    def __init__(self, name: str, base_address: int, size: int,
                 read_only: bool = False,
                 fill: int = 0x00) -> None:
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.name = name
        self.base_address = base_address
        self.size = size
        self.read_only = read_only
        self._data = bytearray([fill & 0xFF]) * size
        #: Access counters (reads/writes through any path).
        self.read_accesses = 0
        self.write_accesses = 0

    # -- address helpers ---------------------------------------------------
    @property
    def end_address(self) -> int:
        """First address past the end of this memory."""
        return self.base_address + self.size

    def contains(self, address: int, size: int = 1) -> bool:
        """True when the access [address, address+size) falls inside."""
        return (self.base_address <= address
                and address + size <= self.end_address)

    def _offset(self, address: int, size: int) -> int:
        if not self.contains(address, size):
            raise AddressError(
                f"address {address:#010x} (+{size}) outside memory "
                f"{self.name!r} [{self.base_address:#010x}, "
                f"{self.end_address:#010x})")
        if size > 1 and address % size != 0:
            raise AlignmentError(
                f"misaligned {size}-byte access at {address:#010x} "
                f"in {self.name!r}")
        return address - self.base_address

    # -- generic access ----------------------------------------------------------
    def read(self, address: int, size: int = 4) -> int:
        """Read ``size`` bytes (1, 2 or 4), big-endian."""
        offset = self._offset(address, size)
        self.read_accesses += 1
        return int.from_bytes(self._data[offset:offset + size], "big")

    def write(self, address: int, value: int, size: int = 4,
              force: bool = False) -> None:
        """Write ``size`` bytes of ``value``, big-endian.

        ``force`` bypasses the read-only check (used to load FLASH images).
        """
        if self.read_only and not force:
            raise AddressError(f"write to read-only memory {self.name!r} "
                               f"at {address:#010x}")
        offset = self._offset(address, size)
        self.write_accesses += 1
        self._data[offset:offset + size] = (value & mask(size * 8)).to_bytes(
            size, "big")

    def read_bytes(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes at once, counted as ``length`` byte reads.

        Unchecked: the caller has made sure this region holds the range.
        """
        offset = address - self.base_address
        self.read_accesses += length
        return bytes(self._data[offset:offset + length])

    def write_bytes(self, address: int, data: bytes) -> None:
        """Write ``data`` at once, counted as ``len(data)`` byte writes.

        Unchecked: the caller has made sure this region is writable and
        holds the range.
        """
        offset = address - self.base_address
        self.write_accesses += len(data)
        self._data[offset:offset + len(data)] = data

    # -- convenience accessors --------------------------------------------------------
    def read_word(self, address: int) -> int:
        """Read a 32-bit word."""
        return self.read(address, 4)

    def write_word(self, address: int, value: int) -> None:
        """Write a 32-bit word."""
        self.write(address, value, 4)

    def read_byte(self, address: int) -> int:
        """Read a single byte."""
        return self.read(address, 1)

    def write_byte(self, address: int, value: int) -> None:
        """Write a single byte."""
        self.write(address, value, 1)

    def load_bytes(self, address: int, data: bytes,
                   force: bool = True) -> None:
        """Bulk-load ``data`` at ``address`` (program/image loading)."""
        if not self.contains(address, max(len(data), 1)):
            raise AddressError(
                f"image of {len(data)} bytes at {address:#010x} does not "
                f"fit in {self.name!r}")
        offset = address - self.base_address
        if self.read_only and not force:
            raise AddressError(f"cannot load into read-only {self.name!r}")
        self._data[offset:offset + len(data)] = data

    def dump(self, address: int, length: int) -> bytes:
        """Copy ``length`` bytes starting at ``address``."""
        offset = self._offset(address, 1)
        return bytes(self._data[offset:offset + length])

    def fill(self, value: int = 0) -> None:
        """Fill the whole memory with ``value``."""
        self._data = bytearray([value & 0xFF]) * self.size

    # -- checkpoint / restore ----------------------------------------------
    def capture_state(self) -> dict:
        """Full contents plus the access counters."""
        return {
            "data": bytes(self._data),
            "read_accesses": self.read_accesses,
            "write_accesses": self.write_accesses,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite the contents in place (aliases to ``_data`` survive)."""
        self._data[:] = state["data"]
        self.read_accesses = state["read_accesses"]
        self.write_accesses = state["write_accesses"]

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MemoryStorage({self.name!r}, base={self.base_address:#x}, "
                f"size={self.size:#x})")


class MemoryMap(SimComponent):
    """A collection of :class:`MemoryStorage` regions with routing.

    Provides the flat ``read``/``write`` interface the functional ISS mode,
    the memory dispatcher and the kernel-function interceptor use, plus the
    interceptor's whole-range ``fill``/``copy``.
    """

    def __init__(self, regions: Optional[Iterable[MemoryStorage]] = None
                 ) -> None:
        self._regions: list[MemoryStorage] = list(regions or [])

    def add(self, region: MemoryStorage) -> MemoryStorage:
        """Add a region; overlapping regions are rejected."""
        for existing in self._regions:
            if (region.base_address < existing.end_address
                    and existing.base_address < region.end_address):
                raise AddressError(
                    f"memory region {region.name!r} overlaps "
                    f"{existing.name!r}")
        self._regions.append(region)
        return region

    def region_for(self, address: int, size: int = 1) -> MemoryStorage:
        """The region containing the access; raises AddressError if none."""
        region = self._holding(address, size)
        if region is None:
            raise AddressError(f"no memory region claims address "
                               f"{address:#010x}")
        return region

    def region_named(self, name: str) -> MemoryStorage:
        """Look a region up by name."""
        for region in self._regions:
            if region.name == name:
                return region
        raise KeyError(name)

    @property
    def regions(self) -> tuple[MemoryStorage, ...]:
        """All registered regions."""
        return tuple(self._regions)

    def state_children(self) -> dict:
        """Every region by name (the map itself holds no state)."""
        return {region.name: region for region in self._regions}

    # -- flat access ---------------------------------------------------------------
    def read(self, address: int, size: int = 4) -> int:
        """Read ``size`` bytes from whichever region claims ``address``."""
        return self.region_for(address, size).read(address, size)

    def write(self, address: int, value: int, size: int = 4) -> None:
        """Write ``size`` bytes to whichever region claims ``address``."""
        self.region_for(address, size).write(address, value, size)

    def fill(self, dest: int, value: int, length: int) -> bool:
        """Set ``length`` bytes from ``dest`` to the byte ``value``.

        Returns False, touching nothing, unless one writable region holds
        the whole range.
        """
        region = self._holding(dest, length)
        if region is None or region.read_only:
            return False
        region.write_bytes(dest, bytes((value & 0xFF,)) * length)
        return True

    def copy(self, dest: int, src: int, length: int) -> bool:
        """Copy ``length`` bytes from ``src`` to ``dest`` in one operation.

        The result equals a forward byte-by-byte copy, overlapping ranges
        included.  Returns False, touching nothing, unless one region holds
        the source range and one writable region the destination range.
        """
        source = self._holding(src, length)
        target = self._holding(dest, length)
        if source is None or target is None or target.read_only:
            return False
        data = source.read_bytes(src, length)
        if source is target and src < dest < src + length:
            # A forward byte copy reads bytes it has already written, so
            # the destination repeats the first ``dest - src`` source bytes.
            stride = dest - src
            data = (data[:stride] * (length // stride + 1))[:length]
        target.write_bytes(dest, data)
        return True

    def _holding(self, address: int, length: int) -> Optional[MemoryStorage]:
        """The region holding all of ``[address, address + length)``."""
        for region in self._regions:
            if region.contains(address, length):
                return region
        return None

    def read_word(self, address: int) -> int:
        """Read a 32-bit word."""
        return self.read(address, 4)

    def write_word(self, address: int, value: int) -> None:
        """Write a 32-bit word."""
        self.write(address, value, 4)

    def write_byte(self, address: int, value: int) -> None:
        """Write a single byte (program-loading callback)."""
        self.write(address, value, 1)

    def load_program(self, program) -> int:
        """Load an assembled :class:`~repro.isa.assembler.Program`.

        Returns the number of bytes loaded.
        """
        total = 0
        for base, data in program.segments:
            self.region_for(base, max(len(data), 1)).load_bytes(base,
                                                                bytes(data))
            total += len(data)
        return total

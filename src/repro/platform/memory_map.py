"""Address map of the MicroBlaze VanillaNet platform.

Mirrors the layout of the MBVanilla Net platform for the Insight/Memec
V2MB1000 board: 8 KB of LMB block RAM at the reset vector, the large
memories and all peripherals on the 32-bit OPB.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- memories ---------------------------------------------------------------
BRAM_BASE = 0x0000_0000
BRAM_SIZE = 0x2000                  # 8 KB dual-port block RAM on the LMB

SDRAM_BASE = 0x8000_0000
SDRAM_SIZE = 0x0200_0000            # 32 MB SDDR RAM (main memory)

SRAM_BASE = 0x9000_0000
SRAM_SIZE = 0x0040_0000             # 4 MB SRAM

FLASH_BASE = 0xA000_0000
FLASH_SIZE = 0x0200_0000            # 32 MB FLASH

# -- peripherals --------------------------------------------------------------
CONSOLE_UART_BASE = 0xFFFF_0000
DEBUG_UART_BASE = 0xFFFF_0100
TIMER_BASE = 0xFFFF_0200
INTC_BASE = 0xFFFF_0300
GPIO_BASE = 0xFFFF_0400
ETHERNET_BASE = 0xFFFF_1000

PERIPHERAL_REGION_SIZE = 0x100
ETHERNET_REGION_SIZE = 0x1000

# -- interrupt wiring -----------------------------------------------------------
IRQ_TIMER = 0
IRQ_CONSOLE_UART = 1
IRQ_ETHERNET = 2
IRQ_DEBUG_UART = 3


@dataclass(frozen=True)
class Region:
    """A named address range (used for documentation and address checks)."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        """First address past the region."""
        return self.base + self.size

    def contains(self, address: int) -> bool:
        """True when ``address`` falls inside the region."""
        return self.base <= address < self.end


#: Every region of the platform, for documentation, tests and examples.
REGIONS = (
    Region("bram", BRAM_BASE, BRAM_SIZE),
    Region("sdram", SDRAM_BASE, SDRAM_SIZE),
    Region("sram", SRAM_BASE, SRAM_SIZE),
    Region("flash", FLASH_BASE, FLASH_SIZE),
    Region("console_uart", CONSOLE_UART_BASE, PERIPHERAL_REGION_SIZE),
    Region("debug_uart", DEBUG_UART_BASE, PERIPHERAL_REGION_SIZE),
    Region("timer", TIMER_BASE, PERIPHERAL_REGION_SIZE),
    Region("intc", INTC_BASE, PERIPHERAL_REGION_SIZE),
    Region("gpio", GPIO_BASE, PERIPHERAL_REGION_SIZE),
    Region("ethernet", ETHERNET_BASE, ETHERNET_REGION_SIZE),
)


def region_named(name: str) -> Region:
    """Look a region up by name."""
    for region in REGIONS:
        if region.name == name:
            return region
    raise KeyError(name)

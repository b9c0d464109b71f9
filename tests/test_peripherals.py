"""Unit tests for the peripherals, memory models and the dispatcher."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.errors import AddressError, AlignmentError
from repro.peripherals import (ConsoleSink, MemoryDispatcher, MemoryMap,
                               MemoryStorage)
from repro.platform import ModelConfig, VanillaNetPlatform, memory_map as mm
from repro.signals import DataMode
from repro.software import hello_program


class TestMemoryStorage:
    def test_word_roundtrip(self):
        memory = MemoryStorage("ram", 0x1000, 0x100)
        memory.write_word(0x1010, 0xDEADBEEF)
        assert memory.read_word(0x1010) == 0xDEADBEEF

    def test_byte_and_halfword_big_endian(self):
        memory = MemoryStorage("ram", 0, 0x100)
        memory.write_word(0, 0x11223344)
        assert memory.read_byte(0) == 0x11
        assert memory.read(2, 2) == 0x3344

    def test_out_of_range_rejected(self):
        memory = MemoryStorage("ram", 0x1000, 0x10)
        with pytest.raises(AddressError):
            memory.read_word(0x0FFC)
        with pytest.raises(AddressError):
            memory.read_word(0x1010)

    def test_misaligned_rejected(self):
        memory = MemoryStorage("ram", 0, 0x100)
        with pytest.raises(AlignmentError):
            memory.read_word(2)
        with pytest.raises(AlignmentError):
            memory.write(1, 0, 2)

    def test_read_only_blocks_writes(self):
        flash = MemoryStorage("flash", 0, 0x100, read_only=True)
        with pytest.raises(AddressError):
            flash.write_word(0, 1)
        flash.write(0, 0xAB, 1, force=True)
        assert flash.read_byte(0) == 0xAB

    def test_load_bytes_and_dump(self):
        memory = MemoryStorage("ram", 0x100, 0x100)
        memory.load_bytes(0x110, b"\x01\x02\x03\x04")
        assert memory.dump(0x110, 4) == b"\x01\x02\x03\x04"

    def test_load_bytes_rejects_overflow(self):
        memory = MemoryStorage("ram", 0, 0x10)
        with pytest.raises(AddressError):
            memory.load_bytes(0x8, bytes(0x10))

    def test_fill_and_access_counters(self):
        memory = MemoryStorage("ram", 0, 0x10, fill=0xFF)
        assert memory.read_byte(5) == 0xFF
        memory.fill(0)
        assert memory.read_byte(5) == 0
        memory.write_byte(1, 2)
        assert memory.read_accesses == 2
        assert memory.write_accesses == 1

    def test_fill_writes_in_place(self):
        """A compiled trace binds the public buffer once; a later fill
        must show through that alias."""
        memory = MemoryStorage("ram", 0, 0x10)
        alias = memory.buffer
        memory.fill(0xAA)
        assert alias[:] == b"\xAA" * 0x10
        assert memory.buffer is alias

    @given(st.integers(min_value=0, max_value=0xFFFF_FFFF),
           st.integers(min_value=0, max_value=0x3C))
    def test_word_roundtrip_property(self, value, offset):
        memory = MemoryStorage("ram", 0, 0x40)
        aligned = offset & ~0x3
        memory.write_word(aligned, value)
        assert memory.read_word(aligned) == value


class TestMemoryMap:
    def _map(self):
        return MemoryMap([MemoryStorage("low", 0, 0x100),
                          MemoryStorage("high", 0x8000_0000, 0x100)])

    def test_routing(self):
        memory = self._map()
        memory.write_word(0x10, 1)
        memory.write_word(0x8000_0010, 2)
        assert memory.read_word(0x10) == 1
        assert memory.read_word(0x8000_0010) == 2

    def test_unmapped_address_rejected(self):
        with pytest.raises(AddressError):
            self._map().read_word(0x4000_0000)

    def test_overlap_rejected(self):
        memory = self._map()
        with pytest.raises(AddressError):
            memory.add(MemoryStorage("overlap", 0x80, 0x100))

    def test_region_named(self):
        memory = self._map()
        assert memory.region_named("high").base_address == 0x8000_0000
        with pytest.raises(KeyError):
            memory.region_named("nope")


class TestMemoryDispatcher:
    def _dispatcher(self, **kwargs):
        memory = MemoryMap([MemoryStorage("ram", 0, 0x1000)])
        return MemoryDispatcher(memory, **kwargs), memory

    def test_disabled_by_default(self):
        dispatcher, __ = self._dispatcher()
        assert not dispatcher.serves_fetch(0x10)
        assert not dispatcher.serves_data(0x10)

    def test_instruction_fetch_service(self):
        dispatcher, memory = self._dispatcher(
            handle_instruction_fetches=True)
        memory.write_word(0x20, 0x12345678)
        assert dispatcher.serves_fetch(0x20)
        assert not dispatcher.serves_fetch(0xFFFF_0000)   # unmapped
        word, cycles = dispatcher.fetch(0x20)
        assert word == 0x12345678
        assert cycles == 1
        assert dispatcher.instruction_fetches == 1

    def test_main_memory_service_detaches_slave(self):
        class FakeSlave:
            def __init__(self):
                self.storage = MemoryStorage("ram2", 0x100, 0x100)
                self.detached = False

            def detach(self):
                self.detached = True

            def attach(self):
                self.detached = False

        dispatcher, __ = self._dispatcher()
        slave = FakeSlave()
        dispatcher.attach_main_memory_slave(slave)
        dispatcher.enable_main_memory(True)
        assert slave.detached
        assert dispatcher.serves_data(0x120)
        dispatcher.enable_main_memory(False)
        assert not slave.detached


def build_platform(**kwargs):
    config = ModelConfig(name="periph", data_mode=DataMode.NATIVE,
                         use_methods=True, **kwargs)
    return VanillaNetPlatform(config)


class TestUart:
    def test_register_interface(self):
        platform = build_platform()
        uart = platform.console_uart
        assert uart.read_register(uart.REG_STATUS, 4) \
            & uart.STATUS_TX_EMPTY
        uart.write_register(uart.REG_TX_FIFO, ord("A"), 4)
        status = uart.read_register(uart.REG_STATUS, 4)
        assert not status & uart.STATUS_TX_EMPTY

    def test_rx_path(self):
        platform = build_platform()
        uart = platform.console_uart
        assert uart.receive_char("x")
        status = uart.read_register(uart.REG_STATUS, 4)
        assert status & uart.STATUS_RX_VALID
        assert uart.read_register(uart.REG_RX_FIFO, 4) == ord("x")
        assert not uart.read_register(uart.REG_STATUS, 4) \
            & uart.STATUS_RX_VALID

    def test_control_register_resets_fifos(self):
        platform = build_platform()
        uart = platform.console_uart
        uart.write_register(uart.REG_TX_FIFO, 1, 4)
        uart.receive_char("y")
        uart.write_register(uart.REG_CONTROL,
                            uart.CONTROL_RESET_TX | uart.CONTROL_RESET_RX, 4)
        assert uart.tx_fifo.empty
        assert uart.rx_fifo.empty

    def test_multicycle_sleep_reduces_tx_activations(self):
        platform = build_platform()
        uart = platform.console_uart
        platform.run_cycles(200)
        # tx_sleep_cycles defaults to 16: far fewer activations than cycles.
        assert 0 < uart.tx_thread_activations <= 200 / 8

    def test_console_sink_collects_text(self):
        sink = ConsoleSink()
        for char in "ok\n":
            sink.write_char(ord(char))
        assert sink.text == "ok\n"
        assert sink.lines() == ["ok"]
        sink.clear()
        assert sink.text == ""


class TestTimer:
    def test_enable_loads_counter_and_counts(self):
        platform = build_platform()
        timer = platform.timer
        timer.write_register(timer.REG_TLR, 0xFFFF_FFF0, 4)
        timer.write_register(timer.REG_TCSR,
                             timer.CTRL_ENABLE | timer.CTRL_AUTO_RELOAD
                             | timer.CTRL_INTERRUPT_ENABLE, 4)
        assert timer.counter == 0xFFFF_FFF0
        platform.run_cycles(20)
        assert timer.expirations >= 1
        assert timer.interrupt_pending
        assert timer.interrupt.value == 1

    def test_interrupt_flag_write_one_to_clear(self):
        platform = build_platform()
        timer = platform.timer
        timer.control |= timer.CTRL_INTERRUPT_FLAG
        timer.interrupt.force(1)
        timer.write_register(timer.REG_TCSR, timer.CTRL_INTERRUPT_FLAG, 4)
        assert not timer.interrupt_pending

    def test_counter_read_only_register(self):
        platform = build_platform()
        timer = platform.timer
        timer.write_register(timer.REG_TCR, 1234, 4)
        assert timer.read_register(timer.REG_TCR, 4) == 0

    def test_one_shot_disables_itself(self):
        platform = build_platform()
        timer = platform.timer
        timer.write_register(timer.REG_TLR, 0xFFFF_FFFA, 4)
        timer.write_register(timer.REG_TCSR, timer.CTRL_ENABLE, 4)
        platform.run_cycles(20)
        assert timer.expirations == 1
        assert not timer.enabled


class TestInterruptController:
    def test_masking_and_acknowledge(self):
        platform = build_platform()
        intc = platform.intc
        intc.write_register(intc.REG_IER, 0x1, 4)
        intc.write_register(intc.REG_MER, 0x3, 4)
        platform.timer.interrupt.force(1)
        platform.run_cycles(3)
        assert intc.isr & 0x1
        assert intc.pending & 0x1
        assert intc.irq.value == 1
        platform.timer.interrupt.force(0)
        intc.write_register(intc.REG_IAR, 0x1, 4)
        platform.run_cycles(2)
        assert not intc.pending

    def test_acknowledge_served_ahead_only_when_the_output_drops(self):
        platform = build_platform()
        intc, line = platform.intc, platform.timer.interrupt
        iar = intc.base_address + intc.REG_IAR
        intc.write_register(intc.REG_IER, 0x1, 4)
        intc.write_register(intc.REG_MER, 0x3, 4)
        line.force(1)
        platform.run_cycles(3)
        intc.irq.write(1)           # a pending update that keeps the output
        assert not intc.warp_serves(iar, 0x1)   # the input is still high
        line.write(0)               # its fall is pending: counts as low
        assert intc.warp_serves(iar, 0x1)
        assert not intc.warp_serves(iar, 0x0)   # ISR bit 0 stays pending
        assert not intc.warp_serves(intc.base_address + intc.REG_ISR, None)
        assert not intc.warp_serves(intc.base_address + intc.REG_IER, 0x1)

    def test_master_enable_gates_output(self):
        platform = build_platform()
        intc = platform.intc
        intc.write_register(intc.REG_IER, 0x1, 4)
        intc.write_register(intc.REG_ISR, 0x1, 4)   # simulation aid
        platform.run_cycles(1)
        assert intc.irq.value == 0                  # MER still clear
        intc.write_register(intc.REG_MER, 0x3, 4)
        intc.write_register(intc.REG_ISR, 0x1, 4)
        platform.run_cycles(1)
        assert intc.irq.value == 1

    def test_set_and_clear_enable_registers(self):
        platform = build_platform()
        intc = platform.intc
        intc.write_register(intc.REG_SIE, 0x6, 4)
        assert intc.read_register(intc.REG_IER, 4) == 0x6
        intc.write_register(intc.REG_CIE, 0x2, 4)
        assert intc.read_register(intc.REG_IER, 4) == 0x4

    def test_input_wiring(self):
        platform = build_platform()
        assert platform.intc.input_count == 4
        with pytest.raises(ValueError):
            platform.intc.connect_input(40, platform.timer.interrupt)


class TestGpioAndEthernet:
    def test_gpio_output_and_readback(self):
        platform = build_platform()
        gpio = platform.gpio
        gpio.write_register(gpio.REG_TRISTATE, 0, 4)
        gpio.write_register(gpio.REG_DATA, 0xAA, 4)
        assert gpio.read_register(gpio.REG_DATA, 4) == 0xAA
        assert gpio.output_history == [0xAA]

    def test_gpio_inputs_respect_tristate(self):
        platform = build_platform()
        gpio = platform.gpio
        gpio.set_inputs(0xF0)
        gpio.write_register(gpio.REG_TRISTATE, 0xFF, 4)
        assert gpio.read_register(gpio.REG_DATA, 4) == 0xF0

    def test_ethernet_proxy_registers(self):
        platform = build_platform()
        mac = platform.ethernet
        status = mac.read_register(mac.REG_STATUS, 4)
        assert status == mac._DEFAULT_STATUS
        mac.write_register(mac.REG_STATUS, 0x4, 4)    # write-one-to-clear
        assert mac.read_register(mac.REG_STATUS, 4) == status & ~0x4
        mac.write_register(mac.REG_CONTROL, 0x1, 4)
        assert mac.read_register(mac.REG_CONTROL, 4) == 0x1
        assert mac.access_count == 5

    def test_flash_ignores_bus_writes(self):
        platform = build_platform()
        platform.flash.handle_access(mm.FLASH_BASE, 0x55, 4)
        assert platform.flash.storage.read_word(mm.FLASH_BASE) == 0


class TestConsoleIntegration:
    def test_hello_reaches_console_sink(self):
        platform = build_platform()
        platform.load_program(hello_program("ping"))
        platform.run_until_halt(max_cycles=300_000)
        assert "ping" in platform.console.text
        assert platform.console.flush_count >= 4


class _StubLink:
    """Captures frames a MAC commits, without any switch or timing."""

    def __init__(self):
        self.frames = []
        self.commit_times = []

    def transmit(self, mac, payload, commit_ps=None):
        self.frames.append(bytes(payload))
        self.commit_times.append(commit_ps)


class TestEthernetMacRegisters:
    """Register semantics of the (unlinked) proxy, the paper's model."""

    def test_status_write_one_to_clear(self):
        mac = build_platform().ethernet
        assert mac.read_register(mac.REG_STATUS, 4) == mac._DEFAULT_STATUS
        mac.write_register(mac.REG_STATUS, 0x1, 4)
        assert mac.read_register(mac.REG_STATUS, 4) == 0x4
        mac.write_register(mac.REG_STATUS, 0xFFFF_FFFF, 4)
        assert mac.read_register(mac.REG_STATUS, 4) == 0

    def test_offset_masking_folds_sub_word_and_high_bits(self):
        mac = build_platform().ethernet
        # Byte offsets within a word fold onto the word register.
        assert mac.read_register(mac.REG_MAC_LOW | 0x2, 4) \
            == mac.registers[mac.REG_MAC_LOW]
        # Offsets beyond 0xFFC wrap into the register window.
        mac.write_register(0x1000 | mac.REG_CONTROL, 0x55, 4)
        assert mac.registers[mac.REG_CONTROL] == 0x55
        # Unbacked offsets read as zero.
        assert mac.read_register(0x800, 4) == 0

    def test_access_count_tracks_every_access(self):
        mac = build_platform().ethernet
        assert mac.access_count == 0
        mac.read_register(mac.REG_STATUS, 4)
        mac.read_register(0x200, 4)
        mac.write_register(mac.REG_STATUS, 0, 4)
        mac.write_register(mac.REG_CONTROL, 1, 4)
        assert mac.access_count == 4

    @given(st.integers(min_value=0, max_value=0xFFFF_FFFF))
    @settings(deadline=None, max_examples=25)
    def test_write_then_read_any_value(self, value):
        mac = build_platform().ethernet
        mac.write_register(mac.REG_MAC_HIGH, value, 4)
        assert mac.read_register(mac.REG_MAC_HIGH, 4) \
            == value & 0xFFFF_FFFF


class TestEthernetMacFrames:
    """Frame protocol, live only once a link is attached."""

    def make_mac(self):
        mac = build_platform().ethernet
        link = _StubLink()
        mac.attach_link(link, 0)
        return mac, link

    def test_unlinked_frame_registers_are_plain_storage(self):
        mac = build_platform().ethernet
        mac.write_register(mac.REG_TX_DATA, 0x11, 4)
        mac.write_register(mac.REG_TX_GO, 4, 4)
        assert mac.registers[mac.REG_TX_GO] == 4
        assert mac.frames_sent == 0

    def test_tx_stages_words_and_commits_byte_length(self):
        mac, link = self.make_mac()
        mac.write_register(mac.REG_TX_DATA, 0xDEAD_BEEF, 4)
        mac.write_register(mac.REG_TX_DATA, 0x0BAD_CAFE, 4)
        mac.write_register(mac.REG_TX_GO, 6, 4)
        assert link.frames == [b"\xDE\xAD\xBE\xEF\x0B\xAD"]
        assert mac.frames_sent == 1
        assert mac.read_register(mac.REG_TX_STATUS, 4) == 1
        # The staging FIFO is consumed by the commit.
        mac.write_register(mac.REG_TX_GO, 4, 4)
        assert len(link.frames) == 1

    def test_rx_queue_read_ack_and_status(self):
        mac, _ = self.make_mac()
        assert mac.read_register(mac.REG_RX_LEN, 4) == 0
        mac.deliver_frame(b"\x01\x02\x03\x04\x05")
        assert mac.read_register(mac.REG_STATUS, 4) \
            & mac.STATUS_RX_AVAILABLE
        assert mac.read_register(mac.REG_RX_LEN, 4) == 5
        assert mac.read_register(mac.REG_RX_DATA, 4) == 0x0102_0304
        # The tail word is zero-padded.
        assert mac.read_register(mac.REG_RX_DATA, 4) == 0x0500_0000
        mac.write_register(mac.REG_RX_ACK, 1, 4)
        assert mac.read_register(mac.REG_RX_LEN, 4) == 0
        assert not (mac.read_register(mac.REG_STATUS, 4)
                    & mac.STATUS_RX_AVAILABLE)

    def test_rx_interrupt_level_follows_queue_and_enable(self):
        mac, _ = self.make_mac()
        mac.deliver_frame(b"\x01\x02\x03\x04")
        # RX_IE clear: frames queue silently.
        assert mac.interrupt._next == 0
        # A CPU store to CONTROL changes the level one delta later (so
        # the interrupt controller's same-edge poll cannot see it on the
        # fast fabrics); run the kernel's delta queue dry to observe it.
        mac.write_register(mac.REG_CONTROL, mac.CONTROL_RX_IE, 4)
        assert mac.interrupt._next == 0
        mac.sim.run(0)
        assert mac.interrupt._next == 1
        mac.write_register(mac.REG_CONTROL, 0, 4)
        mac.sim.run(0)
        assert mac.interrupt._next == 0

    def test_rx_overflow_drops_and_sets_sticky_bit(self):
        mac, _ = self.make_mac()
        for index in range(mac.RX_QUEUE_DEPTH + 2):
            mac.deliver_frame(bytes([index, 0, 0, 0]))
        assert mac.frames_received == mac.RX_QUEUE_DEPTH
        assert mac.frames_dropped == 2
        status = mac.read_register(mac.REG_STATUS, 4)
        assert status & mac.STATUS_RX_OVERFLOW
        # Sticky until software clears it (write-one-to-clear).
        mac.write_register(mac.REG_STATUS, mac.STATUS_RX_OVERFLOW, 4)
        assert not (mac.read_register(mac.REG_STATUS, 4)
                    & mac.STATUS_RX_OVERFLOW)

    def test_accesses_served_ahead_of_a_delivery(self):
        mac, _ = self.make_mac()
        base = mac.base_address
        ahead = mac.served_ahead_of_delivery
        # Reads of registers deliveries never touch, and stores other
        # than the queue pop and the status W1C, need nothing.
        for offset in (mac.REG_CONTROL, mac.REG_MAC_HIGH, mac.REG_MAC_LOW,
                       mac.REG_TX_STATUS):
            assert ahead(base + offset, False)
        for offset in (mac.REG_CONTROL, mac.REG_TX_DATA, mac.REG_TX_GO):
            assert ahead(base + offset, True)
        for offset in (mac.REG_STATUS, mac.REG_RX_STATUS):
            assert not ahead(base + offset, False)
        for offset in (mac.REG_RX_ACK, mac.REG_STATUS):
            assert not ahead(base + offset, True)
        # Head-frame reads wait only while the RX queue is empty.
        for offset in (mac.REG_RX_DATA, mac.REG_RX_LEN):
            assert not ahead(base + offset, False)
            assert not ahead(base + offset + 0x2, False)
        mac.deliver_frame(b"\x01\x02\x03\x04")
        for offset in (mac.REG_RX_DATA, mac.REG_RX_LEN):
            assert ahead(base + offset, False)

    def test_traces_serve_only_the_fifo_data_words(self):
        mac, _ = self.make_mac()
        base = mac.base_address
        # Under the same guard as the in-warp path past the horizon.
        assert mac.trace_conditions(base + mac.REG_TX_DATA, 4, True) == () \
            == mac.delivery_conditions(base + mac.REG_TX_DATA, True)
        assert mac.trace_conditions(base + mac.REG_RX_DATA, 4, False) \
            == ("rx_pending",) \
            == mac.delivery_conditions(base + mac.REG_RX_DATA, False)
        for offset, store in ((mac.REG_RX_LEN, False), (mac.REG_TX_GO, True),
                              (mac.REG_CONTROL, True),
                              (mac.REG_CONTROL, False),
                              (mac.REG_STATUS, False),
                              (mac.REG_RX_ACK, True),
                              (mac.REG_TX_DATA, False),
                              (mac.REG_RX_DATA, True)):
            assert mac.trace_conditions(base + offset, 4, store) is None
        assert mac.trace_conditions(base + mac.REG_RX_DATA, 2, False) is None
        unlinked = build_platform().ethernet
        assert unlinked.trace_conditions(
            unlinked.base_address + unlinked.REG_TX_DATA, 4, True) is None

"""Unit tests for VCD tracing and kernel-function interception."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.isa import assemble
from repro.iss import (FunctionalMicroBlaze, InvalidatingDirectMemory,
                       KernelFunctionInterceptor, MicroBlazeCore,
                       memcpy_handler, memset_handler)
from repro.kernel import (AddressError, ClockedEngine, ENGINE_CLOCKED,
                          ENGINE_GENERIC, SimTime, Simulator)
from repro.peripherals import MemoryMap, MemoryStorage
from repro.platform import VanillaNetPlatform, VariantName, variant_config
from repro.signals import Clock, ResolvedSignal, Signal
from repro.software import (clib_source, hello_program,
                            memory_exercise_program)
from repro.tracing import Tracer, VcdWriter


class TestVcdWriter:
    def test_header_and_change_format(self):
        writer = VcdWriter()
        code = writer.declare("clk", 1)
        bus_code = writer.declare("addr", 32)
        writer.record(0, code, 1, 1)
        writer.record(1000, bus_code, 0x10, 32)
        text = writer.getvalue()
        assert "$timescale 1ps $end" in text
        assert f"$var wire 1 {code} clk $end" in text
        assert "$enddefinitions $end" in text
        assert "#0" in text and "#1000" in text
        assert f"1{code}" in text
        assert f"b10000 {bus_code}" in text
        assert writer.change_count == 2

    def test_declare_after_start_rejected(self):
        writer = VcdWriter()
        code = writer.declare("a", 1)
        writer.record(0, code, 0, 1)
        with pytest.raises(RuntimeError):
            writer.declare("b", 1)

    def test_logic_vector_values(self):
        from repro.datatypes import LogicVector
        writer = VcdWriter()
        code = writer.declare("bus", 4)
        writer.record(0, code, LogicVector(4, "10XZ"), 4)
        assert "b10xz" in writer.getvalue()

    def test_same_timestamp_grouped(self):
        writer = VcdWriter()
        a = writer.declare("a", 1)
        b = writer.declare("b", 1)
        writer.record(500, a, 1, 1)
        writer.record(500, b, 0, 1)
        assert writer.getvalue().count("#500") == 1


class TestTracer:
    def test_event_driven_mode_records_changes(self):
        sim = Simulator()
        signal = Signal(sim, "s", 0)
        tracer = Tracer(sim)
        tracer.trace(signal, "s", 8)

        def stimulus():
            signal.write(1)
            yield SimTime.ns(1)
            signal.write(2)
            yield SimTime.ns(1)

        sim.spawn_thread("stim", stimulus)
        sim.run(SimTime.ns(5))
        assert tracer.change_count == 2
        assert tracer.traced_count == 1

    def test_polled_mode_scans_on_event(self):
        sim = Simulator()
        clock = Clock(sim, "clk", SimTime.ns(10))
        signal = ResolvedSignal(sim, "bus", 8, 0)
        tracer = Tracer(sim, poll_event=clock.posedge_event())
        tracer.trace(signal, "bus")
        tracer.trace(clock, "clk", 1)

        def stimulus():
            yield SimTime.ns(25)
            signal.write(0x55, driver="tb")

        sim.spawn_thread("stim", stimulus)
        sim.run(SimTime.ns(100))
        assert tracer.poll_count == 10
        assert tracer.change_count >= 2     # initial sample + the change

    def test_tracer_adds_one_process_in_polled_mode(self):
        sim = Simulator()
        clock = Clock(sim, "clk", SimTime.ns(10))
        tracer = Tracer(sim, poll_event=clock.posedge_event())
        for index in range(5):
            tracer.trace(Signal(sim, f"s{index}", 0))
        assert sim.process_count() == 1


def _interception_system(program=None):
    memory = MemoryMap([MemoryStorage("ram", 0, 0x4000)])
    system = FunctionalMicroBlaze(memory_map=memory)
    system.load_program(program or memory_exercise_program(region_bytes=48))
    return system


def _zero_length_calls_program():
    return assemble(f"""
_start:
    li      r5, buffer
    addik   r6, r0, 0x5A
    addik   r7, r0, 0
    brlid   r15, memset
    nop
    li      r5, buffer
    li      r6, buffer
    addik   r7, r0, 0
    brlid   r15, memcpy
    nop
    bri     _halt
_halt:
    bri     _halt
{clib_source()}
    .align 4
buffer:
    .word 0
""")


class TestTracingOnClockedEngine:
    """Satellite: VCD tracing must work identically on the clocked engine
    (it was previously only exercised on the generic engine path)."""

    def test_tracer_records_on_clocked_engine(self):
        sim = ClockedEngine()
        clock = Clock(sim, "clk", SimTime.ns(10))
        signal = Signal(sim, "s", 0)
        tracer = Tracer(sim, poll_event=clock.posedge_event())
        tracer.trace(signal, "s", 8)
        tracer.trace(clock, "clk", 1)

        def stimulus():
            yield SimTime.ns(25)
            signal.write(0x3C)

        sim.spawn_thread("stim", stimulus)
        sim.run(SimTime.ns(100))
        assert tracer.poll_count == 10
        assert tracer.change_count >= 2
        assert "b111100" in tracer.writer.getvalue()

    def test_traced_variant_runs_on_clocked_engine(self):
        platform = VanillaNetPlatform(variant_config(
            VariantName.INITIAL_TRACE, engine=ENGINE_CLOCKED))
        platform.load_program(hello_program("t"))
        platform.run_cycles(300)
        assert isinstance(platform.sim, ClockedEngine)
        assert platform.tracer is not None
        assert platform.tracer.traced_count > 20
        assert platform.tracer.change_count > 50
        vcd_text = platform.tracer.writer.getvalue()
        assert "$enddefinitions" in vcd_text
        assert "#" in vcd_text

    def test_vcd_identical_across_engines(self):
        """Polled tracing scans signals in registration order on every
        engine, and the engines are cycle-identical, so the VCD streams
        must match byte for byte."""
        streams = {}
        for engine in (ENGINE_GENERIC, ENGINE_CLOCKED):
            platform = VanillaNetPlatform(variant_config(
                VariantName.INITIAL_TRACE, engine=engine))
            platform.load_program(hello_program("t"))
            platform.run_cycles(400)
            streams[engine] = platform.tracer.writer.getvalue()
        assert streams[ENGINE_GENERIC] == streams[ENGINE_CLOCKED]


class TestKernelFunctionInterception:
    def test_handlers_replicate_memset_memcpy(self):
        reference = _interception_system()
        reference.run(200_000)
        intercepted = _interception_system()
        hooked = intercepted.enable_interception()
        assert hooked == 2
        intercepted.run(200_000)
        result = intercepted.symbols.address_of("result")
        assert intercepted.memory.read_word(result) \
            == reference.memory.read_word(result) == 0xA5 * 48
        copy = intercepted.symbols.address_of("copy")
        assert intercepted.memory.read(copy, 1) == 0xA5

    def test_interception_reduces_retired_instructions(self):
        reference = _interception_system()
        reference.run(200_000)
        intercepted = _interception_system()
        intercepted.enable_interception()
        intercepted.run(200_000)
        assert intercepted.core.stats.instructions_retired \
            < reference.core.stats.instructions_retired / 2
        assert intercepted.core.stats.interception_hits == 2
        assert intercepted.core.stats.effective_instructions \
            > intercepted.core.stats.instructions_retired

    @pytest.mark.parametrize("program", [memory_exercise_program,
                                         _zero_length_calls_program])
    def test_intercepted_counts_what_the_routines_retire(self, program):
        stats = {}
        for capture in (False, True):
            system = _interception_system(program())
            if capture:
                assert system.enable_interception() == 2
            system.run(200_000)
            assert system.core.pc == system.symbols.address_of("_halt")
            stats[capture] = system.core.stats
        assert stats[True].interception_hits == 2
        assert stats[False].instructions_retired \
            == stats[True].instructions_retired \
            + stats[True].instructions_intercepted

    def test_disable_restores_full_execution(self):
        system = _interception_system()
        system.enable_interception()
        system.interceptor.disable()
        system.run(200_000)
        assert system.core.stats.interception_hits == 0

    def test_handler_register_semantics(self):
        memory = MemoryMap([MemoryStorage("ram", 0, 0x1000)])
        interceptor = KernelFunctionInterceptor(memory)
        interceptor.register(0x100, "memset", memset_handler)
        interceptor.register(0x200, "memcpy", memcpy_handler)
        assert set(interceptor.registered_addresses) == {0x100, 0x200}

    def test_memset_handler_direct(self):
        memory = MemoryMap([MemoryStorage("ram", 0, 0x1000)])
        core = MicroBlazeCore(fetch=lambda a: 0)
        core.regs.write(5, 0x100)       # dest
        core.regs.write(6, 0x7E)        # value
        core.regs.write(7, 8)           # length
        result = memset_handler(core, memory)
        assert result.bytes_processed == 8
        assert memory.read(0x100, 1) == 0x7E
        assert memory.read(0x107, 1) == 0x7E
        assert core.regs.read(3) == 0x100
        assert memory.region_named("ram").write_accesses == 8

    def test_memcpy_handler_direct(self):
        self._memcpy_four_bytes(0x300, b"\x01\x02\x03\x04")

    @pytest.mark.parametrize("dest, copied", [
        (0x201, b"\x01\x01\x01\x01"),
        (0x202, b"\x01\x02\x01\x02"),
    ])
    def test_memcpy_handler_forward_overlap(self, dest, copied):
        """A forward byte copy re-reads bytes it has already copied."""
        self._memcpy_four_bytes(dest, copied)

    @staticmethod
    def _memcpy_four_bytes(dest, copied):
        memory = MemoryMap([MemoryStorage("ram", 0, 0x1000)])
        for offset in range(4):
            memory.write(0x200 + offset, offset + 1, 1)
        core = MicroBlazeCore(fetch=lambda a: 0)
        core.regs.write(5, dest)
        core.regs.write(6, 0x200)
        core.regs.write(7, 4)
        memcpy_handler(core, memory)
        ram = memory.region_named("ram")
        assert ram.dump(dest, 4) == copied
        assert (ram.read_accesses, ram.write_accesses) == (4, 8)

    def test_no_interception_in_delay_slot(self):
        memory = MemoryMap([MemoryStorage("ram", 0, 0x1000)])
        interceptor = KernelFunctionInterceptor(memory)
        core = MicroBlazeCore(fetch=lambda a: 0)
        interceptor.register(core.pc, "memset", memset_handler)
        core._branch_after_delay = 0x40
        assert interceptor.maybe_intercept(core) is None


# -- bulk handlers against per-byte reference loops ---------------------------
#: ``(name, base, size, read_only)``: two adjacent RAMs, a 0x40-byte gap, then
#: read-only memory; addresses past ``_BULK_END`` are unmapped too.
_BULK_LAYOUT = (("ram_a", 0x000, 0x100, False), ("ram_b", 0x100, 0x100, False),
                ("rom", 0x240, 0x80, True))
_BULK_END = 0x2C0
_BULK_CONTENTS = random.Random(0x5EED).randbytes(_BULK_END)
_DECODABLE_WORD = assemble("addik r3, r3, 1").words()[0][1]


def _byte_loop_memset(core, memory):
    dest, value, length = (core.regs.read(5), core.regs.read(6) & 0xFF,
                           core.regs.read(7))
    for offset in range(length):
        memory.write(dest + offset, value, 1)
    core.regs.write(3, dest)


def _byte_loop_memcpy(core, memory):
    dest, src, length = (core.regs.read(5), core.regs.read(6),
                         core.regs.read(7))
    for offset in range(length):
        memory.write(dest + offset, memory.read(src + offset, 1), 1)
    core.regs.write(3, dest)


def _run_on_bulk_layout(handler, dest, arg, length, decoded_pcs):
    """Run one handler call on a fresh map; everything it can change."""
    regions = [MemoryStorage(name, base, size, read_only=read_only)
               for name, base, size, read_only in _BULK_LAYOUT]
    for region in regions:
        region.load_bytes(region.base_address,
                          _BULK_CONTENTS[region.base_address:
                                         region.end_address])
    core = MicroBlazeCore(fetch=lambda address: 0)
    for pc in decoded_pcs:
        core.build_decoded(pc, _DECODABLE_WORD)
    for register, value in ((5, dest), (6, arg), (7, length)):
        core.regs.write(register, value)
    error = None
    try:
        handler(core, InvalidatingDirectMemory(MemoryMap(regions), core))
    except AddressError as exc:
        error = (type(exc), str(exc))
    return {
        "bytes": [region.dump(region.base_address, region.size)
                  for region in regions],
        "reads": [region.read_accesses for region in regions],
        "writes": [region.write_accesses for region in regions],
        "invalidations": core.stats.decoded_invalidations,
        "decoded": sorted(pc for pc in decoded_pcs
                          if core.decoded_entry(pc) is not None),
        "r3": core.regs.read(3),
        "error": error,
    }


_addresses = st.one_of(
    st.integers(0, _BULK_END + 0x20),
    st.sampled_from([0xFC, 0xFF, 0x100, 0x1F8, 0x1FF, 0x200, 0x23C, 0x240,
                     _BULK_END - 4]))
_lengths = st.one_of(st.integers(0, 0x140), st.sampled_from([0, 1, 4, 0x100]))
_decoded_pcs = st.sets(st.integers(0, _BULK_END // 4 - 1).map(lambda w: w * 4),
                       max_size=96)
BULK_SETTINGS = settings(max_examples=200, deadline=None)


class TestBulkHandlersMatchByteLoops:
    """``memset``/``memcpy`` run as one fill/copy must leave memory, access
    counters, the decoded cache, r3 and any fault exactly as the per-byte
    loops do."""

    @BULK_SETTINGS
    @given(dest=_addresses, value=st.integers(0, 0xFFFF_FFFF),
           length=_lengths, decoded_pcs=_decoded_pcs)
    @example(dest=0x10, value=0x1A5, length=0x40, decoded_pcs={0x20, 0x4C})
    @example(dest=0x13, value=7, length=0, decoded_pcs={0x10})
    @example(dest=0xF0, value=1, length=0x20, decoded_pcs={0xFC, 0x100})
    @example(dest=0x1F0, value=2, length=0x20, decoded_pcs={0x1FC})
    @example(dest=0x240, value=3, length=4, decoded_pcs=set())
    def test_memset(self, dest, value, length, decoded_pcs):
        assert _run_on_bulk_layout(memset_handler, dest, value, length,
                                   decoded_pcs) \
            == _run_on_bulk_layout(_byte_loop_memset, dest, value, length,
                                   decoded_pcs)

    @BULK_SETTINGS
    @given(data=st.data(), length=_lengths, decoded_pcs=_decoded_pcs)
    def test_memcpy(self, data, length, decoded_pcs):
        dest = data.draw(_addresses, label="dest")
        src = data.draw(st.one_of(
            _addresses, st.integers(-9, 9).map(lambda d: max(0, dest + d))),
            label="src")
        self._check_memcpy(dest, src, length, decoded_pcs)

    @pytest.mark.parametrize("dest, src, length, decoded_pcs", [
        (0x23, 0x20, 0x41, {0x40}),           # forward overlap: repeats
        (0x20, 0x23, 0x41, {0x20}),           # backward overlap
        (0x30, 0x30, 0x10, {0x30, 0x3C}),     # exact overlap
        (0x30, 0x250, 0, {0x30}),             # zero length
        (0x30, 0x250, 0x40, set()),           # read-only source
        (0xF8, 0x240, 0x10, {0x100}),         # crosses into the next RAM
        (0x1F8, 0x10, 0x10, {0x1FC}),         # runs into the gap
        (0x240, 0x10, 4, set()),              # into read-only memory
        (0x10, 0x1FC, 8, set()),              # source runs into the gap
    ])
    def test_memcpy_corners(self, dest, src, length, decoded_pcs):
        self._check_memcpy(dest, src, length, decoded_pcs)

    @staticmethod
    def _check_memcpy(dest, src, length, decoded_pcs):
        assert _run_on_bulk_layout(memcpy_handler, dest, src, length,
                                   decoded_pcs) \
            == _run_on_bulk_layout(_byte_loop_memcpy, dest, src, length,
                                   decoded_pcs)

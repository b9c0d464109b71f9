"""Unit tests for the MicroBlaze ISS core and functional harness."""

import pytest

from repro.iss import FunctionalMicroBlaze, MicroBlazeCore
from repro.isa import assemble
from repro.kernel.errors import ModelError
from repro.peripherals import MemoryMap, MemoryStorage


def run_source(source: str, max_instructions: int = 20_000,
               memory_size: int = 0x10000) -> FunctionalMicroBlaze:
    """Assemble and run a program on the functional harness."""
    system = FunctionalMicroBlaze(memory_size=memory_size)
    system.load_program(assemble(source))
    system.run(max_instructions)
    return system


HALT_TAIL = """
    bri _halt
_halt:
    bri _halt
"""


class TestArithmetic:
    def test_add_and_addi(self):
        system = run_source("""
_start:
    addik r3, r0, 40
    addi  r4, r3, 2
    add   r5, r3, r4
""" + HALT_TAIL)
        assert system.register(3) == 40
        assert system.register(4) == 42
        assert system.register(5) == 82

    def test_carry_chain(self):
        system = run_source("""
_start:
    li    r3, 0xFFFFFFFF
    addik r4, r0, 1
    add   r5, r3, r4          # 0, carry out
    addc  r6, r0, r0          # carry in -> 1
""" + HALT_TAIL)
        assert system.register(5) == 0
        assert system.register(6) == 1

    def test_addk_keeps_carry(self):
        system = run_source("""
_start:
    li    r3, 0xFFFFFFFF
    addik r4, r0, 1
    add   r5, r3, r4          # sets carry
    addk  r6, r3, r4          # result wraps, carry preserved
    addc  r7, r0, r0          # still sees the carry from `add`
""" + HALT_TAIL)
        assert system.register(6) == 0
        assert system.register(7) == 1

    def test_rsub_subtracts(self):
        system = run_source("""
_start:
    addik r3, r0, 100
    addik r4, r0, 42
    rsub  r5, r4, r3          # r3 - r4 = 58
    rsubi r6, r4, 50          # 50 - r4 = 8
""" + HALT_TAIL)
        assert system.register(5) == 58
        assert system.register(6) == 8

    def test_negative_immediates_sign_extend(self):
        system = run_source("""
_start:
    addik r3, r0, -1
    addik r4, r0, -100
""" + HALT_TAIL)
        assert system.register(3) == 0xFFFF_FFFF
        assert system.register(4) == 0xFFFF_FF9C

    def test_mul_and_div(self):
        system = run_source("""
_start:
    addik r3, r0, 7
    addik r4, r0, 6
    mul   r5, r3, r4
    muli  r6, r3, 100
    idiv  r7, r4, r5          # r5 / r4 = 7
    idivu r8, r3, r6          # 700 / 7 = 100
""" + HALT_TAIL)
        assert system.register(5) == 42
        assert system.register(6) == 700
        assert system.register(7) == 7
        assert system.register(8) == 100

    def test_divide_by_zero_yields_zero(self):
        system = run_source("""
_start:
    addik r3, r0, 9
    idiv  r4, r0, r3
""" + HALT_TAIL)
        assert system.register(4) == 0

    def test_cmp_signed_and_unsigned(self):
        system = run_source("""
_start:
    addik r3, r0, -5
    addik r4, r0, 10
    cmp   r5, r3, r4          # ra=-5 < rb=10 -> MSB clear
    cmp   r6, r4, r3          # ra=10 > rb=-5 -> MSB set
    cmpu  r7, r3, r4          # unsigned: 0xFFFFFFFB > 10 -> MSB set
""" + HALT_TAIL)
        assert system.register(5) >> 31 == 0
        assert system.register(6) >> 31 == 1
        assert system.register(7) >> 31 == 1


class TestLogicAndShifts:
    def test_logic_ops(self):
        system = run_source("""
_start:
    li    r3, 0xF0F0F0F0
    li    r4, 0x0FF00FF0
    and   r5, r3, r4
    or    r6, r3, r4
    xor   r7, r3, r4
    andn  r8, r3, r4
    andi  r9, r3, 0xF0
    ori   r10, r0, 0x123
    xori  r11, r10, 0x101
""" + HALT_TAIL)
        assert system.register(5) == 0x00F000F0
        assert system.register(6) == 0xFFF0FFF0
        assert system.register(7) == 0xFF00FF00
        assert system.register(8) == 0xF000F000
        assert system.register(9) == 0xF0
        assert system.register(10) == 0x123
        assert system.register(11) == 0x022

    def test_single_bit_shifts(self):
        system = run_source("""
_start:
    li    r3, 0x80000001
    sra   r4, r3              # arithmetic: sign kept, carry = old bit0
    srl   r5, r3              # logical
    src   r6, r3              # carry (1 from sra) shifted into MSB
""" + HALT_TAIL)
        assert system.register(4) == 0xC0000000
        assert system.register(5) == 0x40000000
        # After sra, carry=1; srl recomputes carry=1; src shifts that in.
        assert system.register(6) == 0xC0000000

    def test_barrel_shifts(self):
        system = run_source("""
_start:
    li     r3, 0x80000010
    bslli  r4, r3, 4
    bsrli  r5, r3, 4
    bsrai  r6, r3, 4
    addik  r7, r0, 8
    bsll   r8, r3, r7
    bsrl   r9, r3, r7
    bsra   r10, r3, r7
""" + HALT_TAIL)
        assert system.register(4) == 0x00000100
        assert system.register(5) == 0x08000001
        assert system.register(6) == 0xF8000001
        assert system.register(8) == 0x00001000
        assert system.register(9) == 0x00800000
        assert system.register(10) == 0xFF800000

    def test_sign_extension(self):
        system = run_source("""
_start:
    addik r3, r0, 0x80
    sext8 r4, r3
    li    r5, 0x8000
    sext16 r6, r5
""" + HALT_TAIL)
        assert system.register(4) == 0xFFFFFF80
        assert system.register(6) == 0xFFFF8000


class TestMemoryAccess:
    def test_word_load_store(self):
        system = run_source("""
_start:
    li    r3, 0xCAFEBABE
    swi   r3, r0, buffer
    lwi   r4, r0, buffer
    bri _halt
_halt:
    bri _halt
    .align 4
buffer:
    .word 0
""")
        assert system.register(4) == 0xCAFEBABE

    def test_byte_and_halfword_access(self):
        system = run_source("""
_start:
    li    r3, 0x11223344
    swi   r3, r0, buffer
    lbui  r4, r0, buffer        # big-endian: MSB first
    lbui  r5, r0, buffer+3
    lhui  r6, r0, buffer+2
    addik r7, r0, 0xAB
    sbi   r7, r0, buffer+1
    lwi   r8, r0, buffer
    bri _halt
_halt:
    bri _halt
    .align 4
buffer:
    .word 0
""")
        assert system.register(4) == 0x11
        assert system.register(5) == 0x44
        assert system.register(6) == 0x3344
        assert system.register(8) == 0x11AB3344

    def test_register_indexed_addressing(self):
        system = run_source("""
_start:
    li    r3, table
    addik r4, r0, 4
    lw    r5, r3, r4           # table[1]
    bri _halt
_halt:
    bri _halt
    .align 4
table:
    .word 0x111, 0x222, 0x333
""")
        assert system.register(5) == 0x222


class TestControlFlow:
    def test_conditional_branches(self):
        system = run_source("""
_start:
    addik r3, r0, 3
    add   r4, r0, r0
loop:
    addik r4, r4, 10
    addik r3, r3, -1
    bnei  r3, loop
""" + HALT_TAIL)
        assert system.register(4) == 30

    def test_branch_with_link_and_return(self):
        system = run_source("""
_start:
    brlid r15, subroutine
    nop
    addik r4, r3, 1
    bri _halt
subroutine:
    addik r3, r0, 99
    rtsd  r15, 8
    nop
_halt:
    bri _halt
""")
        assert system.register(3) == 99
        assert system.register(4) == 100

    def test_delay_slot_executes_before_branch(self):
        system = run_source("""
_start:
    add   r3, r0, r0
    brid  skip
    addik r3, r3, 5            # delay slot: must execute
    addik r3, r3, 100          # skipped
skip:
    addik r4, r3, 0
""" + HALT_TAIL)
        assert system.register(4) == 5

    def test_absolute_branch(self):
        system = run_source("""
_start:
    brai  target
    addik r3, r0, 1            # skipped (no delay slot)
target:
    addik r4, r0, 7
""" + HALT_TAIL)
        assert system.register(3) == 0
        assert system.register(4) == 7

    def test_imm_prefix_large_branch_offset(self):
        # A forward branch always goes through the IMM prefix path.
        system = run_source("""
_start:
    addik r3, r0, 1
    beqi  r0, far_away
    addik r3, r0, 2
far_away:
    addik r4, r3, 0
""" + HALT_TAIL)
        assert system.register(4) == 1


class TestSpecialRegisters:
    def test_mfs_msr_carry_visible(self):
        system = run_source("""
_start:
    li    r3, 0xFFFFFFFF
    addik r4, r0, 1
    add   r5, r3, r4           # sets carry
    mfs   r6, rmsr
""" + HALT_TAIL)
        assert system.register(6) & 0x4          # carry bit

    def test_msrset_msrclr(self):
        system = run_source("""
_start:
    msrset r3, 0x2             # enable interrupts, r3 = old MSR
    mfs    r4, rmsr
    msrclr r5, 0x2
    mfs    r6, rmsr
""" + HALT_TAIL)
        assert system.register(4) & 0x2
        assert not system.register(6) & 0x2

    def test_mts_and_mfs_roundtrip(self):
        system = run_source("""
_start:
    addik r3, r0, 0x6          # IE + carry
    mts   rmsr, r3
    mfs   r4, rmsr
""" + HALT_TAIL)
        assert system.register(4) & 0x2
        assert system.register(4) & 0x4


class TestInterrupts:
    def test_interrupt_taken_and_returned(self):
        system = FunctionalMicroBlaze()
        system.load_program(assemble("""
_reset:
    brai   _start
    .org 0x10
_ivec:
    brai   handler
    .org 0x20
_start:
    msrset r0, 0x2
    add    r3, r0, r0
main_loop:
    addik  r3, r3, 1
    addik  r4, r3, -50
    blti   r4, main_loop
    bri    _halt
_halt:
    bri    _halt
    .org 0x200
handler:
    addik  r20, r20, 1
    rtid   r14, 0
    nop
"""))
        core = system.core
        system.run(20)              # let the loop start with IE enabled
        core.raise_interrupt()
        system.run(5)
        core.clear_interrupt()
        system.run(20_000)
        assert system.register(20) == 1          # handler ran exactly once
        assert system.register(3) == 50          # main loop completed

    def test_interrupt_masked_when_ie_clear(self):
        system = FunctionalMicroBlaze()
        system.load_program(assemble("""
_start:
    add    r3, r0, r0
loop:
    addik  r3, r3, 1
    addik  r4, r3, -20
    blti   r4, loop
""" + HALT_TAIL))
        system.core.raise_interrupt()
        system.run(10_000)
        assert system.register(3) == 20
        assert system.core.stats.interrupts_taken == 0

    def test_interrupt_not_taken_in_delay_slot(self):
        core = MicroBlazeCore(fetch=lambda addr: 0x80000000)  # add r0,r0,r0
        core.msr.interrupt_enable = True
        core._branch_after_delay = 0x100
        core.raise_interrupt()
        assert not core.interrupt_will_be_taken()


class TestStatistics:
    def test_per_function_profile(self):
        system = run_source("""
_start:
    brlid r15, work
    nop
    bri   _halt
work:
    addik r3, r0, 10
work_loop:
    addik r3, r3, -1
    bnei  r3, work_loop
    rtsd  r15, 8
    nop
_halt:
    bri _halt
""")
        stats = system.core.stats
        # Local labels (work_loop) attribute to the enclosing function via
        # the name-prefix convention used by function_fraction().
        assert stats.function_fraction("work") > 0.5
        assert stats.instructions_retired > 20

    def test_mnemonic_histogram(self):
        system = run_source("""
_start:
    addik r3, r0, 5
    addik r4, r0, 6
    add   r5, r3, r4
""" + HALT_TAIL)
        assert system.core.stats.per_mnemonic["addik"] >= 2
        assert system.core.stats.per_mnemonic["add"] >= 1

    def test_load_store_counters(self):
        system = run_source("""
_start:
    li   r3, 0x55
    swi  r3, r0, 0x100
    lwi  r4, r0, 0x100
    lwi  r5, r0, 0x100
""" + HALT_TAIL)
        assert system.core.stats.stores == 1
        assert system.core.stats.loads == 2

    def test_warp_ends_summarised_merged_and_restored(self):
        core = MicroBlazeCore()
        core.stats.warp_ends.update({"bound": 2, "device": 1})
        other = MicroBlazeCore()
        other.stats.warp_ends["device"] += 3
        core.stats.merge(other.stats)
        assert core.stats.summary()["warp_ends"] == {"bound": 2,
                                                     "device": 4}
        other.restore_state(core.capture_state())
        assert other.stats.warp_ends == core.stats.warp_ends


class TestCoreErrorHandling:
    def test_unconnected_core_raises(self):
        core = MicroBlazeCore()
        with pytest.raises(ModelError):
            core.step()

    def test_reset_restores_power_up_state(self):
        system = run_source("""
_start:
    addik r3, r0, 77
""" + HALT_TAIL)
        core = system.core
        assert core.regs.read(3) == 77
        core.reset()
        assert core.regs.read(3) == 0
        assert core.pc == 0

    def test_r0_stays_zero(self):
        system = run_source("""
_start:
    addik r0, r0, 55
    add   r3, r0, r0
""" + HALT_TAIL)
        assert system.register(0) == 0
        assert system.register(3) == 0


class TestFunctionalHarness:
    def test_io_region_hooks(self):
        writes = []
        system = FunctionalMicroBlaze()
        system.add_io_region(0xFFFF0000, 0x100,
                             read=lambda addr, size: 0x5A,
                             write=lambda addr, value, size:
                             writes.append((addr, value)))
        system.load_program(assemble("""
_start:
    li   r3, 0xFFFF0000
    lwi  r4, r3, 0
    addik r5, r0, 0x77
    swi  r5, r3, 4
""" + HALT_TAIL))
        system.run()
        assert system.register(4) == 0x5A
        assert writes == [(0xFFFF0004, 0x77)]

    def test_memory_map_injection(self):
        memory = MemoryMap([MemoryStorage("ram", 0, 0x1000),
                            MemoryStorage("high", 0x8000_0000, 0x1000)])
        system = FunctionalMicroBlaze(memory_map=memory)
        system.load_program(assemble("""
_start:
    li   r3, 0x80000000
    addik r4, r0, 0x12
    swi  r4, r3, 0
    lwi  r5, r3, 0
""" + HALT_TAIL))
        system.run()
        assert system.register(5) == 0x12
        assert memory.read_word(0x8000_0000) == 0x12

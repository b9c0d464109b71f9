"""MicroBlaze instruction-set simulator core.

The core is a *functional* model: it executes one instruction per
:meth:`MicroBlazeCore.step` against abstract ``fetch`` / ``load`` /
``store`` callbacks and knows nothing about buses or simulation time.  The
SystemC-style wrapper (:mod:`repro.iss.wrapper`) supplies callbacks that
perform pin/cycle-accurate OPB transactions; the fast non-cycle-accurate
paths supply callbacks that talk to the memory dispatcher directly.  This
mirrors the paper's structure, where "a notably large component is the
Xilinx MicroBlaze ISS, which is standard C++ implementation wrapped in a
SystemC module" (section 4).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from ..datatypes import (WORD_MASK, get_field, mask, sign_extend, to_signed,
                         truncate)
from ..kernel.component import SimComponent
from ..kernel.errors import ModelError
from ..isa import encoding as enc
from ..isa.decoder import DecodeCache, DecodedEntry, Instruction
from ..isa.registers import (INTERRUPT_LINK_REGISTER, MachineStatusRegister,
                             RegisterFile)
from .statistics import ExecutionStatistics

FetchFn = Callable[[int], int]
LoadFn = Callable[[int, int], int]
StoreFn = Callable[[int, int, int], None]


@dataclass
class StepResult:
    """Outcome of executing a single instruction."""

    pc: int                      # address of the executed instruction
    instruction: Instruction
    next_pc: int                 # architectural PC after the instruction
    took_branch: bool = False
    took_interrupt: bool = False
    memory_address: Optional[int] = None
    memory_is_store: bool = False


class DecodedCacheState(SimComponent):
    """State-protocol face of a core's decoded-program cache.

    The cache entries hold compiled closures bound to their core's register
    file and cannot be serialized; the component therefore captures nothing
    and restoring simply invalidates the cache so a restored core rebuilds
    its entries deterministically on demand.
    """

    def __init__(self, core: "MicroBlazeCore") -> None:
        self._core = core

    def restore_state(self, state: dict) -> None:
        self._core.clear_decoded_cache()


class MicroBlazeCore(SimComponent):
    """Architectural state and instruction semantics of the MicroBlaze."""

    def __init__(self,
                 fetch: Optional[FetchFn] = None,
                 load: Optional[LoadFn] = None,
                 store: Optional[StoreFn] = None,
                 reset_pc: int = enc.RESET_VECTOR) -> None:
        self.regs = RegisterFile()
        self.msr = MachineStatusRegister()
        self.pc = reset_pc
        self.ear = 0
        self.esr = 0
        self.reset_pc = reset_pc
        self.halted = False
        self.interrupt_pending = False
        self.stats = ExecutionStatistics()
        self.decode_cache = DecodeCache()
        self.fetch: FetchFn = fetch if fetch is not None else _unconnected
        self.load: LoadFn = load if load is not None else _unconnected
        self.store: StoreFn = store if store is not None else _unconnected
        self._imm_prefix: Optional[int] = None
        self._branch_after_delay: Optional[int] = None
        self._dispatch = self._build_dispatch()
        #: Handler families whose instructions always fall straight
        #: through to pc+4: no branch, no IMM prefix, no memory access and
        #: no PC-reading special move (``mfs`` can read the PC, so it is
        #: deliberately absent).  Such entries may join basic blocks.
        self._fallthrough_handlers = {
            self._exec_add, self._exec_rsub, self._exec_cmp,
            self._exec_logic, self._exec_mul, self._exec_idiv,
            self._exec_barrel_shift, self._exec_shift_one, self._exec_sext,
        }
        #: Address-keyed decoded-program cache (the temporally-decoupled
        #: fast path's working set; see :meth:`build_decoded`).
        self._decoded: dict[int, DecodedEntry] = {}
        self._decoded_state = DecodedCacheState(self)

    # ------------------------------------------------------------------ #
    # control
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Return the core to its power-up state (registers cleared)."""
        self.regs.reset()
        self.msr.reset()
        self.pc = self.reset_pc
        self.ear = 0
        self.esr = 0
        self.halted = False
        self.interrupt_pending = False
        self._imm_prefix = None
        self._branch_after_delay = None

    def raise_interrupt(self) -> None:
        """Assert the external interrupt input (level sensitive)."""
        self.interrupt_pending = True

    def clear_interrupt(self) -> None:
        """De-assert the external interrupt input."""
        self.interrupt_pending = False

    @property
    def in_delay_slot(self) -> bool:
        """True when the next instruction to execute sits in a delay slot."""
        return self._branch_after_delay is not None

    @property
    def imm_prefix_active(self) -> bool:
        """True when an IMM prefix is waiting to combine with the next word."""
        return self._imm_prefix is not None

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def step(self, take_interrupts: bool = True) -> StepResult:
        """Fetch, decode and execute exactly one instruction.

        ``take_interrupts=False`` commits the instruction even when an
        interrupt is pending.  The cycle-accurate wrapper performs the
        instruction's bus accesses *before* this zero-time execute; an
        interrupt that rises during those accesses (a device write
        raising its own level source) must wait for the next boundary --
        vectoring here would leave the access's side effect in the
        device and then re-execute the instruction after the handler.
        """
        if self.halted:
            raise ModelError("cannot step a halted core")
        if take_interrupts and self._should_take_interrupt():
            return self._take_interrupt()

        pc = self.pc
        word = self.fetch(pc)
        instruction = self.decode_cache.lookup(word)
        in_delay_slot = self._branch_after_delay is not None

        handler = self._dispatch.get(instruction.mnemonic)
        if handler is None:
            raise ModelError(f"unimplemented mnemonic "
                             f"{instruction.mnemonic!r} at {pc:#010x}")
        outcome = handler(instruction)
        target, took_branch, mem_addr, mem_is_store = outcome

        if instruction.mnemonic != "imm":
            self._imm_prefix = None

        if in_delay_slot:
            next_pc = self._branch_after_delay
            self._branch_after_delay = None
        elif took_branch and instruction.delay_slot:
            # The branch target applies after the next (delay-slot) word.
            self._branch_after_delay = target
            next_pc = (pc + 4) & WORD_MASK
        elif took_branch:
            next_pc = target
        else:
            next_pc = (pc + 4) & WORD_MASK

        self.pc = next_pc
        self.stats.record_instruction(instruction, pc,
                                      took_branch=took_branch)
        return StepResult(pc=pc, instruction=instruction, next_pc=next_pc,
                          took_branch=took_branch,
                          memory_address=mem_addr,
                          memory_is_store=mem_is_store)

    def run(self, max_instructions: int = 1_000_000,
            until_pc: Optional[int] = None) -> int:
        """Functional (untimed) execution loop.

        Runs until ``until_pc`` is reached, the core halts, or
        ``max_instructions`` have retired.  Returns the number of retired
        instructions.  The cycle-accurate platform does *not* use this loop;
        it steps the core from its SystemC-style wrapper instead.
        """
        executed = 0
        while executed < max_instructions and not self.halted:
            if until_pc is not None and self.pc == until_pc \
                    and not self.in_delay_slot:
                break
            self.step()
            executed += 1
        return executed

    def interrupt_will_be_taken(self) -> bool:
        """True when the *next* ``step`` will vector to the interrupt handler.

        The cycle-accurate wrapper uses this to skip the instruction fetch
        for that step (the interrupt entry does not consume a bus transfer).
        """
        return self._should_take_interrupt()

    def preview_effective_address(self, instruction: Instruction) -> int:
        """Effective address the given load/store will use, without side
        effects.  Valid only immediately before stepping that instruction."""
        return self._effective_address(instruction)

    def preview_store_value(self, instruction: Instruction) -> int:
        """Value the given store instruction will write (pre-step preview)."""
        return self.regs.read(instruction.rd) & mask(
            instruction.access_size * 8)

    # ------------------------------------------------------------------ #
    # interrupt entry
    # ------------------------------------------------------------------ #
    def _should_take_interrupt(self) -> bool:
        return (self.interrupt_pending
                and self.msr.interrupt_enable
                and not self.in_delay_slot
                and self._imm_prefix is None)

    def _take_interrupt(self) -> StepResult:
        return_address = self.pc
        self.regs.write(INTERRUPT_LINK_REGISTER, return_address)
        self.msr.interrupt_enable = False
        self.pc = enc.INTERRUPT_VECTOR
        self.stats.record_interrupt()
        dummy = Instruction(word=0, opcode=0, mnemonic="<interrupt>",
                            fmt=enc.Format.TYPE_A, rd=0, ra=0, rb=0, imm=0,
                            function=0)
        return StepResult(pc=return_address, instruction=dummy,
                          next_pc=self.pc, took_branch=True,
                          took_interrupt=True)

    # ------------------------------------------------------------------ #
    # operand helpers
    # ------------------------------------------------------------------ #
    def _imm32(self, instruction: Instruction) -> int:
        """The effective 32-bit immediate, honouring an IMM prefix."""
        if self._imm_prefix is not None:
            return ((self._imm_prefix << 16) | instruction.imm) & WORD_MASK
        return sign_extend(instruction.imm, 16)

    def _operand_b(self, instruction: Instruction) -> int:
        if instruction.fmt is enc.Format.TYPE_B:
            return self._imm32(instruction)
        return self.regs.read(instruction.rb)

    # ------------------------------------------------------------------ #
    # instruction semantics
    # ------------------------------------------------------------------ #
    def _build_dispatch(self) -> dict:
        dispatch: dict[str, Callable[[Instruction], tuple]] = {}
        for mnemonic in ("add", "addc", "addk", "addkc",
                         "addi", "addic", "addik", "addikc"):
            dispatch[mnemonic] = self._exec_add
        for mnemonic in ("rsub", "rsubc", "rsubk", "rsubkc",
                         "rsubi", "rsubic", "rsubik", "rsubikc"):
            dispatch[mnemonic] = self._exec_rsub
        dispatch["cmp"] = self._exec_cmp
        dispatch["cmpu"] = self._exec_cmp
        for mnemonic in ("or", "and", "xor", "andn",
                         "ori", "andi", "xori", "andni"):
            dispatch[mnemonic] = self._exec_logic
        dispatch["mul"] = self._exec_mul
        dispatch["muli"] = self._exec_mul
        dispatch["idiv"] = self._exec_idiv
        dispatch["idivu"] = self._exec_idiv
        for mnemonic in ("bsrl", "bsra", "bsll", "bsrli", "bsrai", "bslli"):
            dispatch[mnemonic] = self._exec_barrel_shift
        for mnemonic in ("sra", "src", "srl"):
            dispatch[mnemonic] = self._exec_shift_one
        dispatch["sext8"] = self._exec_sext
        dispatch["sext16"] = self._exec_sext
        dispatch["mfs"] = self._exec_mfs
        dispatch["mts"] = self._exec_mts
        dispatch["msrset"] = self._exec_msrset_clr
        dispatch["msrclr"] = self._exec_msrset_clr
        for mnemonic in ("br", "brd", "brld", "bra", "brad", "brald",
                         "bri", "brid", "brlid", "brai", "braid", "bralid"):
            dispatch[mnemonic] = self._exec_branch
        for cond in ("eq", "ne", "lt", "le", "gt", "ge"):
            for suffix in ("", "d", "i", "id"):
                dispatch[f"b{cond}{suffix}"] = self._exec_cond_branch
        for mnemonic in ("rtsd", "rtid", "rtbd", "rted"):
            dispatch[mnemonic] = self._exec_return
        dispatch["imm"] = self._exec_imm
        for mnemonic in ("lbu", "lhu", "lw", "lbui", "lhui", "lwi"):
            dispatch[mnemonic] = self._exec_load
        for mnemonic in ("sb", "sh", "sw", "sbi", "shi", "swi"):
            dispatch[mnemonic] = self._exec_store
        return dispatch

    _NO_BRANCH = (0, False, None, False)

    def _exec_add(self, instruction: Instruction) -> tuple:
        a = self.regs.read(instruction.ra)
        b = self._operand_b(instruction)
        mnemonic = instruction.mnemonic
        use_carry = "c" in mnemonic.replace("addi", "add")[3:]
        keep_carry = "k" in mnemonic[3:5]
        total = a + b + (self.msr.carry if use_carry else 0)
        self.regs.write(instruction.rd, total)
        if not keep_carry:
            self.msr.carry = 1 if total > WORD_MASK else 0
        return self._NO_BRANCH

    def _exec_rsub(self, instruction: Instruction) -> tuple:
        a = self.regs.read(instruction.ra)
        b = self._operand_b(instruction)
        mnemonic = instruction.mnemonic
        suffix = mnemonic.replace("rsubi", "rsub")[4:]
        use_carry = "c" in suffix
        keep_carry = "k" in suffix
        addend = self.msr.carry if use_carry else 1
        total = b + (WORD_MASK ^ a) + addend
        self.regs.write(instruction.rd, total)
        if not keep_carry:
            self.msr.carry = 1 if total > WORD_MASK else 0
        return self._NO_BRANCH

    def _exec_cmp(self, instruction: Instruction) -> tuple:
        a = self.regs.read(instruction.ra)
        b = self.regs.read(instruction.rb)
        result = truncate(b - a, 32)
        if instruction.mnemonic == "cmp":
            greater = to_signed(a) > to_signed(b)
        else:
            greater = a > b
        result = (result & 0x7FFF_FFFF) | (0x8000_0000 if greater else 0)
        self.regs.write(instruction.rd, result)
        return self._NO_BRANCH

    def _exec_logic(self, instruction: Instruction) -> tuple:
        a = self.regs.read(instruction.ra)
        b = self._operand_b(instruction)
        op = instruction.mnemonic.rstrip("i") \
            if instruction.fmt is enc.Format.TYPE_B else instruction.mnemonic
        if op == "or":
            result = a | b
        elif op == "and":
            result = a & b
        elif op == "xor":
            result = a ^ b
        else:  # andn
            result = a & ~b
        self.regs.write(instruction.rd, result)
        return self._NO_BRANCH

    def _exec_mul(self, instruction: Instruction) -> tuple:
        a = self.regs.read(instruction.ra)
        b = self._operand_b(instruction)
        self.regs.write(instruction.rd, truncate(a * b, 32))
        return self._NO_BRANCH

    def _exec_idiv(self, instruction: Instruction) -> tuple:
        divisor = self.regs.read(instruction.ra)
        dividend = self.regs.read(instruction.rb)
        if divisor == 0:
            self.regs.write(instruction.rd, 0)
            return self._NO_BRANCH
        if instruction.mnemonic == "idiv":
            quotient = int(to_signed(dividend) / to_signed(divisor))
        else:
            quotient = dividend // divisor
        self.regs.write(instruction.rd, truncate(quotient, 32))
        return self._NO_BRANCH

    def _exec_barrel_shift(self, instruction: Instruction) -> tuple:
        a = self.regs.read(instruction.ra)
        if instruction.fmt is enc.Format.TYPE_B:
            amount = instruction.imm & 0x1F
            kind = instruction.imm & 0x600
        else:
            amount = self.regs.read(instruction.rb) & 0x1F
            kind = instruction.function & 0x600
        if kind == enc.BS_SLL:
            result = truncate(a << amount, 32)
        elif kind == enc.BS_SRA:
            result = truncate(to_signed(a) >> amount, 32)
        else:
            result = a >> amount
        self.regs.write(instruction.rd, result)
        return self._NO_BRANCH

    def _exec_shift_one(self, instruction: Instruction) -> tuple:
        a = self.regs.read(instruction.ra)
        carry_out = a & 1
        if instruction.mnemonic == "sra":
            result = truncate(to_signed(a) >> 1, 32)
        elif instruction.mnemonic == "srl":
            result = a >> 1
        else:  # src: shift right through carry
            result = (a >> 1) | (self.msr.carry << 31)
        self.regs.write(instruction.rd, result)
        self.msr.carry = carry_out
        return self._NO_BRANCH

    def _exec_sext(self, instruction: Instruction) -> tuple:
        a = self.regs.read(instruction.ra)
        bits = 8 if instruction.mnemonic == "sext8" else 16
        self.regs.write(instruction.rd, sign_extend(a & mask(bits), bits))
        return self._NO_BRANCH

    def _exec_mfs(self, instruction: Instruction) -> tuple:
        spr = instruction.imm & 0x3FFF
        if spr == enc.SPR_PC:
            value = self.pc
        elif spr == enc.SPR_MSR:
            value = self.msr.value
        elif spr == enc.SPR_EAR:
            value = self.ear
        else:
            value = self.esr
        self.regs.write(instruction.rd, value)
        return self._NO_BRANCH

    def _exec_mts(self, instruction: Instruction) -> tuple:
        spr = instruction.imm & 0x3FFF
        value = self.regs.read(instruction.ra)
        if spr == enc.SPR_MSR:
            self.msr.value = value
        elif spr == enc.SPR_EAR:
            self.ear = value
        elif spr == enc.SPR_ESR:
            self.esr = value
        else:
            raise ModelError(f"mts to read-only special register {spr:#x}")
        return self._NO_BRANCH

    def _exec_msrset_clr(self, instruction: Instruction) -> tuple:
        bits = instruction.imm & 0x3FFF
        old = self.msr.value
        if instruction.mnemonic == "msrset":
            self.msr.value = old | bits
        else:
            self.msr.value = old & ~bits
        self.regs.write(instruction.rd, old)
        return self._NO_BRANCH

    def _exec_branch(self, instruction: Instruction) -> tuple:
        pc = self.pc
        if instruction.fmt is enc.Format.TYPE_B:
            value = self._imm32(instruction)
        else:
            value = self.regs.read(instruction.rb)
        target = value if instruction.absolute \
            else truncate(pc + value, 32)
        if instruction.link:
            self.regs.write(instruction.rd, pc)
        return (target, True, None, False)

    def _exec_cond_branch(self, instruction: Instruction) -> tuple:
        pc = self.pc
        a = to_signed(self.regs.read(instruction.ra))
        condition = instruction.condition
        taken = {
            "eq": a == 0, "ne": a != 0, "lt": a < 0,
            "le": a <= 0, "gt": a > 0, "ge": a >= 0,
        }[condition]
        if not taken:
            return self._NO_BRANCH
        offset = self._imm32(instruction) \
            if instruction.fmt is enc.Format.TYPE_B \
            else self.regs.read(instruction.rb)
        target = truncate(pc + offset, 32)
        return (target, True, None, False)

    def _exec_return(self, instruction: Instruction) -> tuple:
        base = self.regs.read(instruction.ra)
        target = truncate(base + self._imm32(instruction), 32)
        if instruction.mnemonic == "rtid":
            self.msr.interrupt_enable = True
        elif instruction.mnemonic == "rtbd":
            self.msr.break_in_progress = False
        return (target, True, None, False)

    def _exec_imm(self, instruction: Instruction) -> tuple:
        self._imm_prefix = instruction.imm
        return self._NO_BRANCH

    def _exec_load(self, instruction: Instruction) -> tuple:
        address = self._effective_address(instruction)
        size = instruction.access_size
        value = self.load(address, size)
        self.regs.write(instruction.rd, value & mask(size * 8))
        self.stats.record_load()
        return (0, False, address, False)

    def _exec_store(self, instruction: Instruction) -> tuple:
        address = self._effective_address(instruction)
        size = instruction.access_size
        value = self.regs.read(instruction.rd) & mask(size * 8)
        self.store(address, value, size)
        self.stats.record_store()
        if self._decoded:
            self.invalidate_code(address, size)
        return (0, False, address, True)

    def _effective_address(self, instruction: Instruction) -> int:
        base = self.regs.read(instruction.ra)
        offset = self._operand_b(instruction)
        return truncate(base + offset, 32)

    # ------------------------------------------------------------------ #
    # decoded-program cache (the temporally-decoupled fast path)
    # ------------------------------------------------------------------ #
    def decoded_entry(self, pc: int) -> Optional[DecodedEntry]:
        """The cached decoded entry at ``pc`` (None on a miss)."""
        return self._decoded.get(pc)

    def build_decoded(self, pc: int, word: int) -> DecodedEntry:
        """Decode ``word`` at ``pc`` into a cached precompiled entry."""
        instruction = self.decode_cache.lookup(word)
        handler = self._dispatch.get(instruction.mnemonic)
        if handler is None:
            raise ModelError(f"unimplemented mnemonic "
                             f"{instruction.mnemonic!r} at {pc:#010x}")
        symbols = self.stats.symbols
        function_name = symbols.containing(pc) \
            if symbols is not None else None
        entry = DecodedEntry(pc, word, instruction,
                             self._specialise(instruction, handler),
                             function_name)
        entry.falls_through = handler in self._fallthrough_handlers
        if instruction.is_load or instruction.is_store:
            entry.ea = self._compile_effective_address(instruction)
        self._decoded[pc] = entry
        self.stats.decoded_entries += 1
        return entry

    def execute_decoded(self, entry: DecodedEntry) -> bool:
        """Execute a cached entry; returns ``took_branch``.

        Replicates :meth:`step` exactly, minus the fetch (the caller has
        already routed it) and the interrupt check (the caller only runs
        decoded entries while no interrupt can be pending).  An active IMM
        prefix falls back to the generic handler, which resolves the
        combined 32-bit immediate.
        """
        pc = self.pc
        if self._imm_prefix is not None:
            outcome = self._dispatch[entry.mnemonic](entry.instruction)
        else:
            outcome = entry.execute()
        target, took_branch, _mem_addr, _mem_is_store = outcome

        if not entry.is_imm:
            self._imm_prefix = None

        if self._branch_after_delay is not None:
            next_pc = self._branch_after_delay
            self._branch_after_delay = None
        elif took_branch and entry.delay_slot:
            self._branch_after_delay = target
            next_pc = (pc + 4) & WORD_MASK
        elif took_branch:
            next_pc = target
        else:
            next_pc = (pc + 4) & WORD_MASK

        self.pc = next_pc
        stats = self.stats
        stats.instructions_retired += 1
        stats.per_mnemonic[entry.mnemonic] += 1
        if took_branch:
            stats.branches_taken += 1
        if entry.function_name is not None:
            stats.per_function[entry.function_name] += 1
        return took_branch

    def invalidate_code(self, address: int, size: int) -> None:
        """Drop decoded entries overlapped by a write to ``address``.

        Called on every executed store (and by the interception layer's
        native byte writes), keeping the decoded-program cache safe under
        self-modifying code.  A popped entry is also flagged invalid so
        basic-block links pointing at it can never execute stale code.
        ``size`` is a store's (at most 4): only the words holding the first
        and the last byte are checked; see :meth:`invalidate_code_range`.
        """
        cache = self._decoded
        if not cache:
            return
        first = address & ~3
        last = (address + size - 1) & ~3
        entry = cache.pop(first, None)
        if entry is not None:
            entry.valid = False
            self.stats.decoded_invalidations += 1
        if last != first:
            entry = cache.pop(last, None)
            if entry is not None:
                entry.valid = False
                self.stats.decoded_invalidations += 1

    def invalidate_code_range(self, address: int, length: int) -> None:
        """Drop decoded entries overlapped by ``length`` written bytes.

        The range form of :meth:`invalidate_code` for a native ``memset``
        or ``memcpy``: the same entries go, with the same statistics, as
        when each byte is invalidated on its own.
        """
        cache = self._decoded
        if not cache or length <= 0:
            return
        first = address & ~3
        last = (address + length - 1) & ~3
        for pc in range(first, last + 4, 4):
            entry = cache.pop(pc, None)
            if entry is not None:
                entry.valid = False
                self.stats.decoded_invalidations += 1

    def clear_decoded_cache(self) -> None:
        """Invalidate the whole decoded-program cache (program reload)."""
        for entry in self._decoded.values():
            entry.valid = False
        self._decoded.clear()

    def _compile_effective_address(self, instruction: Instruction) -> Callable:
        """A zero-argument closure computing the load/store address.

        Matches :meth:`_effective_address` exactly for the no-IMM-prefix
        case (operands resolved at compile time); callers must fall back to
        :meth:`preview_effective_address` while a prefix is active.
        """
        # Index the register list directly: the 5-bit operand fields are
        # in range by construction, so the bounds check in ``regs.read``
        # buys nothing here.
        values = self.regs._regs
        ra = instruction.ra
        if instruction.fmt is enc.Format.TYPE_B:
            imm16 = sign_extend(instruction.imm, 16)

            def effective_address():
                return (values[ra] + imm16) & WORD_MASK
        else:
            rb = instruction.rb

            def effective_address():
                return (values[ra] + values[rb]) & WORD_MASK
        return effective_address

    def _specialise(self, instruction: Instruction, handler) -> Callable:
        """Compile ``instruction`` into a zero-argument closure.

        The closure performs exactly what ``handler(instruction)`` would
        -- same register/MSR traffic, same statistics, same outcome tuple
        -- but with the per-execution work hoisted out: mnemonic string
        parsing, operand-field extraction, format checks and the dispatch
        lookup all happen once, here.  Only valid while no IMM prefix is
        active (:meth:`execute_decoded` falls back to ``handler`` then).
        """
        regs = self.regs
        msr = self.msr
        mnemonic = instruction.mnemonic
        fmt_b = instruction.fmt is enc.Format.TYPE_B
        imm16 = sign_extend(instruction.imm, 16)
        ra = instruction.ra
        rb = instruction.rb
        rd = instruction.rd
        no_branch = self._NO_BRANCH

        # The hottest handlers index the register list directly (operand
        # fields are 5 bits, always in range; ``rd == 0`` writes are
        # discarded by the hoisted guard exactly like ``regs.write``).
        values = regs._regs

        if handler == self._exec_add:
            use_carry = "c" in mnemonic.replace("addi", "add")[3:]
            keep_carry = "k" in mnemonic[3:5]
            if not use_carry and keep_carry:
                # addk/addik: pure addition, flags untouched.
                if fmt_b:
                    def exec_add():
                        if rd:
                            values[rd] = (values[ra] + imm16) & WORD_MASK
                        return no_branch
                else:
                    def exec_add():
                        if rd:
                            values[rd] = (values[ra] + values[rb]) & WORD_MASK
                        return no_branch
                return exec_add
            if not use_carry:
                # add/addi: addition plus the carry-out update.
                if fmt_b:
                    def exec_add():
                        total = values[ra] + imm16
                        if rd:
                            values[rd] = total & WORD_MASK
                        msr.carry = 1 if total > WORD_MASK else 0
                        return no_branch
                else:
                    def exec_add():
                        total = values[ra] + values[rb]
                        if rd:
                            values[rd] = total & WORD_MASK
                        msr.carry = 1 if total > WORD_MASK else 0
                        return no_branch
                return exec_add

            def exec_add():
                total = values[ra] + (imm16 if fmt_b else values[rb]) \
                    + msr.carry
                if rd:
                    values[rd] = total & WORD_MASK
                if not keep_carry:
                    msr.carry = 1 if total > WORD_MASK else 0
                return no_branch
            return exec_add

        if handler == self._exec_rsub:
            suffix = mnemonic.replace("rsubi", "rsub")[4:]
            use_carry = "c" in suffix
            keep_carry = "k" in suffix

            def exec_rsub():
                a = regs.read(ra)
                b = imm16 if fmt_b else regs.read(rb)
                total = b + (WORD_MASK ^ a) \
                    + (msr.carry if use_carry else 1)
                regs.write(rd, total)
                if not keep_carry:
                    msr.carry = 1 if total > WORD_MASK else 0
                return no_branch
            return exec_rsub

        if handler == self._exec_cmp:
            signed = mnemonic == "cmp"

            def exec_cmp():
                a = values[ra]
                b = values[rb]
                result = (b - a) & WORD_MASK
                if signed:
                    # Signed order on the unsigned encodings: flipping the
                    # sign bit biases both operands by 2**31.
                    greater = (a ^ 0x8000_0000) > (b ^ 0x8000_0000)
                else:
                    greater = a > b
                if rd:
                    values[rd] = (result & 0x7FFF_FFFF) \
                        | (0x8000_0000 if greater else 0)
                return no_branch
            return exec_cmp

        if handler == self._exec_logic:
            op = mnemonic.rstrip("i") if fmt_b else mnemonic

            def exec_logic():
                a = values[ra]
                b = imm16 if fmt_b else values[rb]
                if op == "or":
                    result = a | b
                elif op == "and":
                    result = a & b
                elif op == "xor":
                    result = a ^ b
                else:  # andn
                    result = a & ~b
                if rd:
                    values[rd] = result & WORD_MASK
                return no_branch
            return exec_logic

        if handler == self._exec_mul:
            def exec_mul():
                a = regs.read(ra)
                b = imm16 if fmt_b else regs.read(rb)
                regs.write(rd, truncate(a * b, 32))
                return no_branch
            return exec_mul

        if handler == self._exec_branch:
            absolute = instruction.absolute
            link = instruction.link

            def exec_branch():
                pc = self.pc
                value = imm16 if fmt_b else values[rb]
                target = value if absolute else (pc + value) & WORD_MASK
                if link and rd:
                    values[rd] = pc & WORD_MASK
                return (target, True, None, False)
            return exec_branch

        if handler == self._exec_cond_branch:
            condition = instruction.condition

            # The signed comparisons against zero re-expressed on the
            # unsigned register value (bit 31 set <=> negative), so the
            # closure needs no sign conversion at all.
            def exec_cond_branch():
                a = values[ra]
                if condition == "eq":
                    taken = a == 0
                elif condition == "ne":
                    taken = a != 0
                elif condition == "lt":
                    taken = a >= 0x8000_0000
                elif condition == "le":
                    taken = a == 0 or a >= 0x8000_0000
                elif condition == "gt":
                    taken = 0 < a < 0x8000_0000
                else:  # ge
                    taken = a < 0x8000_0000
                if not taken:
                    return no_branch
                offset = imm16 if fmt_b else values[rb]
                return ((self.pc + offset) & WORD_MASK, True, None, False)
            return exec_cond_branch

        if handler == self._exec_return:
            enable_interrupts = mnemonic == "rtid"
            clear_break = mnemonic == "rtbd"

            def exec_return():
                target = truncate(regs.read(ra) + imm16, 32)
                if enable_interrupts:
                    msr.interrupt_enable = True
                elif clear_break:
                    msr.break_in_progress = False
                return (target, True, None, False)
            return exec_return

        if handler == self._exec_load:
            size = instruction.access_size
            value_mask = mask(size * 8)

            def exec_load():
                address = truncate(
                    regs.read(ra) + (imm16 if fmt_b else regs.read(rb)), 32)
                value = self.load(address, size)
                regs.write(rd, value & value_mask)
                self.stats.loads += 1
                return (0, False, address, False)
            return exec_load

        if handler == self._exec_store:
            size = instruction.access_size
            value_mask = mask(size * 8)

            def exec_store():
                address = truncate(
                    regs.read(ra) + (imm16 if fmt_b else regs.read(rb)), 32)
                self.store(address, regs.read(rd) & value_mask, size)
                self.stats.stores += 1
                if self._decoded:
                    self.invalidate_code(address, size)
                return (0, False, address, True)
            return exec_store

        # Rare instructions (shifts, special registers, idiv, imm) keep the
        # generic handler; binding the instruction still removes the
        # dispatch lookup from the hot loop.
        def exec_generic():
            return handler(instruction)
        return exec_generic

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #
    #: Scalar ExecutionStatistics fields carried by a snapshot.  ``symbols``
    #: is deliberately absent: the restoring platform re-attaches its own
    #: symbol table when the program is reloaded.
    _STAT_FIELDS = ("instructions_retired", "loads", "stores",
                    "branches_taken", "interrupts_taken",
                    "instructions_intercepted", "interception_hits",
                    "cycles", "decoded_entries", "decoded_invalidations",
                    "quantum_warps", "quantum_instructions")

    def capture_state(self) -> dict:
        """Plain-data snapshot of the full architectural + statistics state.

        The decoded-program cache is *not* captured (its entries hold
        compiled closures bound to this core); a restored core rebuilds it
        deterministically on demand.
        """
        stats = self.stats
        return {
            "regs": list(self.regs._regs),
            "msr": self.msr.value,
            "pc": self.pc,
            "ear": self.ear,
            "esr": self.esr,
            "halted": self.halted,
            "interrupt_pending": self.interrupt_pending,
            "imm_prefix": self._imm_prefix,
            "branch_after_delay": self._branch_after_delay,
            "stats": {name: getattr(stats, name)
                      for name in self._STAT_FIELDS},
            "per_mnemonic": dict(stats.per_mnemonic),
            "per_function": dict(stats.per_function),
        }

    def restore_state(self, state: dict) -> None:
        """Restore the state captured by :meth:`capture_state`.

        Register contents are written *in place*: decoded-cache closures
        bind ``regs._regs`` (and the MSR object) by identity, so the
        containers themselves must never be replaced.
        """
        self.regs._regs[:] = state["regs"]
        self.msr.value = state["msr"]
        self.pc = state["pc"]
        self.ear = state["ear"]
        self.esr = state["esr"]
        self.halted = state["halted"]
        self.interrupt_pending = state["interrupt_pending"]
        self._imm_prefix = state["imm_prefix"]
        self._branch_after_delay = state["branch_after_delay"]
        stats = self.stats
        for name, value in state["stats"].items():
            setattr(stats, name, value)
        stats.per_mnemonic = Counter(state["per_mnemonic"])
        stats.per_function = Counter(state["per_function"])
        # Any decoded entries compiled against the pre-restore state are
        # stale; drop them (they are rebuilt deterministically on demand).
        self.clear_decoded_cache()

    def state_children(self) -> dict:
        return {"decoded_cache": self._decoded_state}

    # ------------------------------------------------------------------ #
    # debugging helpers
    # ------------------------------------------------------------------ #
    def register_state(self) -> dict[str, int]:
        """Architectural state snapshot (registers, PC, MSR)."""
        state = self.regs.dump()
        state["pc"] = self.pc
        state["msr"] = self.msr.value
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MicroBlazeCore(pc={self.pc:#010x}, "
                f"retired={self.stats.instructions_retired})")


def _unconnected(*_args):
    raise ModelError("MicroBlazeCore memory interface is not connected")


def word_field(word: int, high: int, low: int) -> int:
    """Expose field extraction for wrapper-level peeking (test helper)."""
    return get_field(word, high, low)

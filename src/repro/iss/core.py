"""MicroBlaze instruction-set simulator core.

The core is a *functional* model: it executes instructions against
abstract ``fetch`` / ``load`` / ``store`` callbacks and knows nothing about
buses or simulation time.  Every executor retires an instruction the same
way: :meth:`MicroBlazeCore.entry_for` finds (or builds) the decoded entry
of the word fetched from the PC and :meth:`MicroBlazeCore.execute_decoded`
runs it.  :meth:`MicroBlazeCore.step` is that sequence on the ``fetch``
callback; the SystemC-style wrapper (:mod:`repro.iss.wrapper`) calls the
two itself around its pin/cycle-accurate OPB transactions, and its
temporally-decoupled fast path around accesses served without simulated
time.  This mirrors the paper's structure, where "a notably large
component is the Xilinx MicroBlaze ISS, which is standard C++
implementation wrapped in a SystemC module" (section 4).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Optional

from ..datatypes import WORD_MASK, mask, sign_extend, to_signed, truncate
from ..kernel.component import SimComponent
from ..kernel.errors import ModelError
from ..isa import encoding as enc
from ..isa.decoder import DecodeCache, DecodedEntry, Instruction
from ..isa.registers import (INTERRUPT_LINK_REGISTER, MachineStatusRegister,
                             RegisterFile)
from .statistics import ExecutionStatistics

#: Value masks per access size.
_SIZE_MASKS = {1: 0xFF, 2: 0xFFFF, 4: WORD_MASK}
_TYPE_B = enc.Format.TYPE_B

#: ``(use_carry, keep_carry)`` of each add/rsub mnemonic: a ``c`` after
#: the stem adds the carry in, a ``k`` keeps the carry flag unchanged.
CARRY_FLAGS = {stem + immediate + flags: ("c" in flags, "k" in flags)
               for stem in ("add", "rsub") for immediate in ("", "i")
               for flags in ("", "c", "k", "kc")}

#: The operation of each logic mnemonic.
LOGIC_OPS = {"or": "or", "ori": "or", "and": "and", "andi": "and",
             "xor": "xor", "xori": "xor", "andn": "andn", "andni": "andn"}

#: Branch conditions on the signed register value.
_CONDITIONS = {"eq": lambda a: a == 0, "ne": lambda a: a != 0,
               "lt": lambda a: a < 0, "le": lambda a: a <= 0,
               "gt": lambda a: a > 0, "ge": lambda a: a >= 0}

FetchFn = Callable[[int], int]
LoadFn = Callable[[int, int], int]
StoreFn = Callable[[int, int, int], None]


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
        self.interrupt_pending = False
        self.stats = ExecutionStatistics()
        self.decode_cache = DecodeCache()
        self.fetch: FetchFn = fetch if fetch is not None else _unconnected
        self.load: LoadFn = load if load is not None else _unconnected
        self.store: StoreFn = store if store is not None else _unconnected
        self._imm_prefix: Optional[int] = None
        self._branch_after_delay: Optional[int] = None
        self._dispatch = self._build_dispatch()
        #: Address-keyed decoded-program cache, the one form every
        #: executor retires from (see :meth:`entry_for`).
        self._decoded: dict[int, DecodedEntry] = {}

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
    def step(self) -> Optional[DecodedEntry]:
        """Take a pending interrupt, or fetch and execute one instruction.

        Returns the executed entry, or None when the core vectored to the
        interrupt handler instead.
        """
        if self.interrupt_will_be_taken():
            self.take_interrupt()
            return None
        entry = self.entry_for(self.pc, self.fetch(self.pc))
        self.execute_decoded(entry)
        return entry

    def interrupt_will_be_taken(self) -> bool:
        """True when the next instruction boundary vectors to the interrupt
        handler (see :meth:`take_interrupt`)."""
        return (self.interrupt_pending
                and self.msr.interrupt_enable
                and not self.in_delay_slot
                and self._imm_prefix is None)

    def take_interrupt(self) -> None:
        """Vector to the interrupt handler instead of the next instruction.

        Valid only when :meth:`interrupt_will_be_taken`; the entry fetches
        nothing, so the cycle-accurate wrapper charges it without a bus
        transfer.
        """
        self.regs.write(INTERRUPT_LINK_REGISTER, self.pc)
        self.msr.interrupt_enable = False
        self.pc = enc.INTERRUPT_VECTOR
        self.stats.record_interrupt()

    def preview_effective_address(self, instruction: Instruction) -> int:
        """Effective address the given load/store will use, without side
        effects.  Valid only immediately before executing that instruction."""
        return self._effective_address(instruction)

    def preview_store_value(self, instruction: Instruction) -> int:
        """Value the given store instruction will write (pre-step preview)."""
        return self.regs.values[instruction.rd] \
            & _SIZE_MASKS[instruction.access_size]

    # ------------------------------------------------------------------ #
    # operand helpers
    # ------------------------------------------------------------------ #
    def _imm32(self, instruction: Instruction) -> int:
        """The effective 32-bit immediate, honouring an IMM prefix."""
        if self._imm_prefix is not None:
            return ((self._imm_prefix << 16) | instruction.imm) & WORD_MASK
        return ((instruction.imm ^ 0x8000) - 0x8000) & WORD_MASK

    def _operand_b(self, instruction: Instruction) -> int:
        if instruction.fmt is _TYPE_B:
            return self._imm32(instruction)
        return self.regs.values[instruction.rb]

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

    #: Each handler returns ``(branch target, took_branch)``.
    _NO_BRANCH = (0, False)

    def _exec_add(self, instruction: Instruction) -> tuple:
        a = self.regs.values[instruction.ra]
        b = self._operand_b(instruction)
        use_carry, keep_carry = CARRY_FLAGS[instruction.mnemonic]
        total = a + b + (self.msr.carry if use_carry else 0)
        self.regs.write(instruction.rd, total)
        if not keep_carry:
            self.msr.carry = 1 if total > WORD_MASK else 0
        return self._NO_BRANCH

    def _exec_rsub(self, instruction: Instruction) -> tuple:
        a = self.regs.values[instruction.ra]
        b = self._operand_b(instruction)
        use_carry, keep_carry = CARRY_FLAGS[instruction.mnemonic]
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
        a = self.regs.values[instruction.ra]
        b = self._operand_b(instruction)
        op = LOGIC_OPS[instruction.mnemonic]
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
        if instruction.fmt is _TYPE_B:
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
        if instruction.fmt is _TYPE_B:
            value = self._imm32(instruction)
        else:
            value = self.regs.read(instruction.rb)
        target = value if instruction.absolute \
            else truncate(pc + value, 32)
        if instruction.link:
            self.regs.write(instruction.rd, pc)
        return (target, True)

    def _exec_cond_branch(self, instruction: Instruction) -> tuple:
        pc = self.pc
        a = to_signed(self.regs.values[instruction.ra])
        if not _CONDITIONS[instruction.condition](a):
            return self._NO_BRANCH
        offset = self._imm32(instruction) \
            if instruction.fmt is _TYPE_B \
            else self.regs.read(instruction.rb)
        target = truncate(pc + offset, 32)
        return (target, True)

    def _exec_return(self, instruction: Instruction) -> tuple:
        base = self.regs.read(instruction.ra)
        target = truncate(base + self._imm32(instruction), 32)
        if instruction.mnemonic == "rtid":
            self.msr.interrupt_enable = True
        elif instruction.mnemonic == "rtbd":
            self.msr.break_in_progress = False
        return (target, True)

    def _exec_imm(self, instruction: Instruction) -> tuple:
        self._imm_prefix = instruction.imm
        return self._NO_BRANCH

    def _exec_load(self, instruction: Instruction) -> tuple:
        address = self._effective_address(instruction)
        size = instruction.access_size
        value = self.load(address, size)
        self.regs.write(instruction.rd, value & _SIZE_MASKS[size])
        self.stats.loads += 1
        return self._NO_BRANCH

    def _exec_store(self, instruction: Instruction) -> tuple:
        address = self._effective_address(instruction)
        size = instruction.access_size
        value = self.regs.values[instruction.rd] & _SIZE_MASKS[size]
        self.store(address, value, size)
        self.stats.stores += 1
        self.invalidate_code(address, size)
        return self._NO_BRANCH

    def _effective_address(self, instruction: Instruction) -> int:
        values = self.regs.values
        offset = self._imm32(instruction) if instruction.fmt is _TYPE_B \
            else values[instruction.rb]
        return (values[instruction.ra] + offset) & WORD_MASK

    # ------------------------------------------------------------------ #
    # decoded-program cache (what every executor retires from)
    # ------------------------------------------------------------------ #
    def decoded_entry(self, pc: int) -> Optional[DecodedEntry]:
        """The cached decoded entry at ``pc`` (None on a miss)."""
        return self._decoded.get(pc)

    def entry_for(self, pc: int, word: int) -> DecodedEntry:
        """The decoded entry of ``word``, just fetched from ``pc``.

        The cached entry, unless the word changed since it was decoded
        (memory written without a store through this core, say by a
        testbench or DMA): then it is dropped like a store into code
        drops it, and rebuilt from the fresh word.
        """
        entry = self._decoded.get(pc)
        if entry is not None:
            if entry.word == word:
                return entry
            self.invalidate_code(pc, 4)
        return self.build_decoded(pc, word)

    def build_decoded(self, pc: int, word: int) -> DecodedEntry:
        """Decode ``word`` at ``pc`` into a cached entry."""
        instruction = self.decode_cache.lookup(word)
        handler = self._dispatch.get(instruction.mnemonic)
        if handler is None:
            raise ModelError(f"unimplemented mnemonic "
                             f"{instruction.mnemonic!r} at {pc:#010x}")
        symbols = self.stats.symbols
        function_name = symbols.containing(pc) \
            if symbols is not None else None
        entry = DecodedEntry(pc, word, instruction, handler, function_name)
        self._decoded[pc] = entry
        self.stats.decoded_entries += 1
        return entry

    def execute_decoded(self, entry: DecodedEntry) -> bool:
        """Retire the entry fetched from the PC; returns ``took_branch``.

        The caller has fetched the word (see :meth:`entry_for`) and checked
        for an interrupt; a load returns what the ``load`` callback
        answers, so a wrapper that performed the access on a bus first
        answers with the value it read.
        """
        pc = self.pc
        target, took_branch = entry.handler(entry.instruction)

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
        self-modifying code.  Every drop bumps ``decoded_invalidations``,
        the stamp compiled traces are checked against, so no trace built
        over the old word runs again.  ``size`` is a store's (at most 4):
        only the words holding the first and the last byte are checked; see
        :meth:`invalidate_code_range`.
        """
        cache = self._decoded
        if not cache:
            return
        first = address & ~3
        last = (address + size - 1) & ~3
        if cache.pop(first, None) is not None:
            self.stats.decoded_invalidations += 1
        if last != first and cache.pop(last, None) is not None:
            self.stats.decoded_invalidations += 1

    def invalidate_code_range(self, address: int, length: int) -> None:
        """Drop decoded entries overlapped by ``length`` written bytes.

        The range form of :meth:`invalidate_code` for a native ``memset``
        or ``memcpy``: the same entries go, with the same statistics (and
        so with every trace the range overlaps), as when each byte is
        invalidated on its own.  It walks the range's words or the cache's
        keys, whichever are fewer.
        """
        cache = self._decoded
        if not cache or length <= 0:
            return
        first = address & ~3
        last = (address + length - 1) & ~3
        if (last - first) // 4 < len(cache):
            dropped = [pc for pc in range(first, last + 4, 4) if pc in cache]
        else:
            dropped = [pc for pc in cache
                       if first <= pc <= last and not pc & 3]
        for pc in dropped:
            del cache[pc]
        self.stats.decoded_invalidations += len(dropped)

    def clear_decoded_cache(self) -> None:
        """Drop the whole decoded-program cache and its traces (program
        reload)."""
        self._decoded.clear()

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
                    "quantum_warps", "quantum_instructions",
                    "traces_compiled", "trace_runs")

    def capture_state(self) -> dict:
        """Plain-data snapshot of the full architectural + statistics state.

        The decoded-program cache is *not* captured (its entries hold
        compiled closures bound to this core); a restored core rebuilds it
        deterministically on demand.
        """
        stats = self.stats
        return {
            "regs": list(self.regs.values),
            "msr": self.msr.value,
            "pc": self.pc,
            "ear": self.ear,
            "esr": self.esr,
            "interrupt_pending": self.interrupt_pending,
            "imm_prefix": self._imm_prefix,
            "branch_after_delay": self._branch_after_delay,
            "stats": {name: getattr(stats, name)
                      for name in self._STAT_FIELDS},
            "per_mnemonic": dict(stats.per_mnemonic),
            "per_function": dict(stats.per_function),
            "trace_exits": dict(stats.trace_exits),
            "warp_ends": dict(stats.warp_ends),
        }

    def restore_state(self, state: dict) -> None:
        """Restore the state captured by :meth:`capture_state`.

        Register contents are written *in place*: decoded-cache closures
        bind ``regs.values`` (and the MSR object) by identity, so the
        containers themselves must never be replaced.
        """
        self.regs.values[:] = state["regs"]
        self.msr.value = state["msr"]
        self.pc = state["pc"]
        self.ear = state["ear"]
        self.esr = state["esr"]
        self.interrupt_pending = state["interrupt_pending"]
        self._imm_prefix = state["imm_prefix"]
        self._branch_after_delay = state["branch_after_delay"]
        stats = self.stats
        for name, value in state["stats"].items():
            setattr(stats, name, value)
        stats.per_mnemonic = Counter(state["per_mnemonic"])
        stats.per_function = Counter(state["per_function"])
        stats.trace_exits = Counter(state["trace_exits"])
        stats.warp_ends = Counter(state["warp_ends"])
        # Any decoded entries compiled against the pre-restore state are
        # stale; drop them (they are rebuilt deterministically on demand).
        self.clear_decoded_cache()

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

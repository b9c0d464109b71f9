"""Trace compiler of the quantum-level ISS.

A time-quantum warp runs hot code as compiled traces, after Dynamo (Bala,
Duesterwald & Banerjia, PLDI 2000) and QEMU's translation blocks (Bellard,
USENIX ATC 2005).  Once a warp has dispatched from one PC
:data:`TRACE_HOT_COUNT` times, the wrapper's per-instruction path records
the path execution takes from there -- each decoded entry with its branch
direction and the memory region that served its load or store -- and
:func:`compile_trace` turns the record into Python source with the
registers as locals and ``compile()``s it once.

A trace covers ALU instructions, branches with their delay slots, IMM
pairs folded into one 32-bit immediate, loads/stores whose guard proves
they hit the memory region seen while recording, and the device register
accesses the device lets a trace serve (:class:`DeviceRegion`), which
call the slave's own ``target_read``/``target_write``.  A trace whose path
branches back to its start loops inside the function for as many passes
as the caller allows.  Anything else ends the trace with exact state:
guards exit *before* the instruction (before its IMM prefix), and the
per-instruction path carries on from there.  Each exit adds the retired
count, the statistics and the access counters of what the trace retired
in one step, from a precomputed row per exit.
"""

from __future__ import annotations

import re
import struct
from typing import NamedTuple, Optional

from ..bus.opb import DATA_MASTER
from ..datatypes import WORD_MASK, sign_extend
from ..isa import encoding as enc
from .core import CARRY_FLAGS, LOGIC_OPS, MicroBlazeCore

#: Warp dispatches from one PC before the path from it is compiled: 64
#: passes of a four-instruction loop cost about one ``compile()``.
TRACE_HOT_COUNT = 64

#: Longest path recorded for one trace, in instructions.
TRACE_MAX_INSNS = 64

#: Further dispatches before a PC whose recorded path did not translate
#: at all is recorded again.
TRACE_RETRY_COUNT = 1024

#: Instructions that can set ``MSR.IE``: ``rtid`` unconditionally, ``mts``
#: to rmsr and ``msrset`` with bit 1 (guarded by mnemonic; they are rare).
#: While an interrupt request is latched, the warp ends in front of them;
#: no trace holds one (it exits there, reason ``"ie_guard"``).
IE_SETTING_MNEMONICS = frozenset(("rtid", "mts", "msrset"))

_WORD = struct.Struct(">I")
_HALF = struct.Struct(">H")
_SIGNED = "((({0}) ^ 0x80000000) - 0x80000000)"
_TAKEN = {"eq": "{0} == 0", "ne": "{0} != 0", "lt": "{0} >= 0x80000000",
          "le": "{0} == 0 or {0} >= 0x80000000",
          "gt": "0 < {0} < 0x80000000", "ge": "{0} < 0x80000000"}
_REGISTER = re.compile(r"\br(\d+)\b")
_WRITTEN = re.compile(r"^r(\d+) = ")
_CARRY = re.compile(r"\bc\b")
#: Row keys no counter of their own name takes: the cycles (returned to
#: the caller), and the DMI and slave-hook transfers with their cycles
#: (booked through the fabric).
_FABRIC_KEYS = frozenset(("cycles", "dmi", "dmi_cycles", "target",
                          "target_cycles"))


class TraceRegion(NamedTuple):
    """A memory region ``[lo, end)`` a trace may access directly.

    ``kind`` names who counts an access besides the backing store:
    ``"lmb"`` (reads/writes), ``"dispatcher"`` (data accesses) or
    ``"dmi"`` (the ``owner`` fabric's direct-access bookkeeping).
    """

    storage: object
    owner: object
    kind: str
    cycles: int
    lo: int
    end: int


class DeviceRegion(NamedTuple):
    """One device register a trace serves through the slave's hooks.

    The trace calls ``slave.target_read``/``target_write`` at ``address``
    only, and only while every public property of ``slave`` named in
    ``conditions`` is true; otherwise it exits in front of the access
    (reason ``"device"``).  Each transfer costs ``cycles`` and is booked
    through the ``owner`` fabric's ``account_target``.
    """

    slave: object
    owner: object
    address: int
    cycles: int
    conditions: tuple


class Trace:
    """A compiled trace: ``run(passes)`` returns ``(next_pc, retired,
    cycles, exit)``, having run at most ``passes`` passes of ``length``
    instructions and ``cycles`` cycles (a path that does not loop runs
    once).  ``reasons[exit]`` says why it ended (None: it ran every pass),
    ``pcs`` are the PCs a halt address stops at, and ``epoch``/``stamp``
    the route epoch and decoded-invalidation count it was compiled under.
    """

    __slots__ = ("run", "length", "cycles", "reasons", "pcs", "epoch",
                 "stamp")


def _alu(entry, imm32: int, reg) -> Optional[list]:
    """Source lines of one fall-through ALU instruction, or None.

    The same semantics as the core's ``_exec_*`` handler of its family,
    on registers held in locals ``r1``..``r31`` and the carry in ``c``;
    ``imm32`` is the immediate with any IMM prefix folded in.
    """
    ins = entry.instruction
    fn = entry.handler.__func__
    name = entry.mnemonic
    a = reg(ins.ra)
    b = str(imm32) if ins.fmt is enc.Format.TYPE_B else reg(ins.rb)
    d = f"r{ins.rd}" if ins.rd else None
    if fn is MicroBlazeCore._exec_add or fn is MicroBlazeCore._exec_rsub:
        use_carry, keep_carry = CARRY_FLAGS[name]
        if fn is MicroBlazeCore._exec_add:
            total = f"{a} + {b}" + (" + c" if use_carry else "")
        else:
            total = f"{b} + ({a} ^ 0xFFFFFFFF) + " \
                + ("c" if use_carry else "1")
        if keep_carry:
            return [f"{d} = ({total}) & 0xFFFFFFFF"] if d else []
        return ["t = " + total] \
            + ([f"{d} = t & 0xFFFFFFFF"] if d else []) + ["c = t >> 32"]
    if fn is MicroBlazeCore._exec_cmp:
        greater = (f"({a} ^ 0x80000000) > ({b} ^ 0x80000000)"
                   if name == "cmp" else f"{a} > {b}")
        expr = f"(({b} - {a}) & 0x7FFFFFFF) | (0x80000000 if {greater} else 0)"
    elif fn is MicroBlazeCore._exec_logic:
        expr = {"or": "{0} | {1}", "and": "{0} & {1}", "xor": "{0} ^ {1}",
                "andn": "{0} & ~{1}"}[LOGIC_OPS[name]].format(a, b)
    elif fn is MicroBlazeCore._exec_mul:
        expr = f"({a} * {b}) & 0xFFFFFFFF"
    elif fn is MicroBlazeCore._exec_barrel_shift:
        if ins.fmt is enc.Format.TYPE_B:
            amount, kind = str(ins.imm & 0x1F), ins.imm & 0x600
        else:
            amount, kind = f"({b} & 0x1F)", ins.function & 0x600
        if kind == enc.BS_SLL:
            expr = f"({a} << {amount}) & 0xFFFFFFFF"
        elif kind == enc.BS_SRA:
            expr = f"({_SIGNED.format(a)} >> {amount}) & 0xFFFFFFFF"
        else:
            expr = f"{a} >> {amount}"
    elif fn is MicroBlazeCore._exec_shift_one:
        expr = {"sra": f"({_SIGNED.format('t')} >> 1) & 0xFFFFFFFF",
                "srl": "t >> 1", "src": "(t >> 1) | (c << 31)"}[name]
        return [f"t = {a}"] + ([f"{d} = {expr}"] if d else []) \
            + ["c = t & 1"]
    elif fn is MicroBlazeCore._exec_sext:
        bits = 0xFF if name == "sext8" else 0xFFFF
        sign = (bits + 1) >> 1
        expr = f"((({a} & {bits}) ^ {sign}) - {sign}) & 0xFFFFFFFF"
    else:
        return None
    return [f"{d} = {expr}"] if d else []


def _refusal(entry) -> str:
    """Why a trace cannot hold ``entry``."""
    return "ie_guard" if entry.mnemonic in IE_SETTING_MNEMONICS \
        else "unsupported"


class _Source:
    """Accumulates one trace's source lines, exit rows and counters."""

    def __init__(self, core) -> None:
        self.lines: list[str] = []
        self.ns = {"R": core.regs.values, "msr": core.msr, "st": core.stats,
                   "dec": core._decoded,
                   "U4": _WORD.unpack_from, "P4": _WORD.pack_into,
                   "U2": _HALF.unpack_from, "P2": _HALF.pack_into}
        self.bound: dict = {}
        self.storages: dict = {}
        self.counts: dict[str, int] = {"retired": 0, "cycles": 0}
        # Exit 0 is a loop's pass limit: nothing beyond the full passes.
        self.rows: list[dict] = [{}]
        self.reasons: list = [None]
        self.pcs: set[int] = set()

    @staticmethod
    def reg(index: int) -> str:
        return f"r{index}" if index else "0"

    def bind(self, obj) -> str:
        name = self.bound.get(id(obj))
        if name is None:
            name = self.bound[id(obj)] = f"o{len(self.bound)}"
            self.ns[name] = obj
        return name

    def count(self, key: str, delta: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + delta

    def exit(self, reason, counts: dict, pc) -> str:
        """A statement leaving the trace with ``counts`` retired."""
        self.rows.append(dict(counts))
        self.reasons.append(reason)
        return f"k = {len(self.rows) - 1}; npc = {pc}; break"

    def retire(self, entry, taken: bool = False) -> None:
        self.pcs.add(entry.pc)
        self.count("retired")
        self.count("cycles", entry.fetch_cycles)
        self.count(f"pm[{entry.mnemonic!r}]")
        if entry.function_name is not None:
            self.count(f"pf[{entry.function_name!r}]")
        if taken:
            self.count("st.branches_taken")

    def access(self, entry, imm32: int, region: TraceRegion, pc: int) -> None:
        """A guarded load/store of ``entry`` against ``region``; the guards
        leave in front of ``pc``."""
        ins = entry.instruction
        size = entry.access_size
        before = dict(self.counts)
        emit = self.lines.append
        b = str(imm32) if ins.fmt is enc.Format.TYPE_B else self.reg(ins.rb)
        emit(f"a = ({self.reg(ins.ra)} + {b}) & 0xFFFFFFFF")
        if size > 1:
            emit(f"if a & {size - 1}: " + self.exit("misaligned", before, pc))
        storage = region.storage
        data = self.storages.setdefault(
            id(storage), (f"d{len(self.storages)}", storage))[0]
        emit(f"o = a - {region.lo}")
        emit(f"if o < 0 or o > {region.end - region.lo - size}: "
             + self.exit("region", before, pc))
        rd = self.reg(ins.rd)
        if entry.is_load:
            if ins.rd:
                emit(f"{rd} = {data}[o]" if size == 1
                     else f"{rd} = U{size}({data}, o)[0]")
            counters = ("reads", "read_accesses", "st.loads")
        else:
            emit("if (a & 0xFFFFFFFC) in dec: "
                 + self.exit("smc", before, pc))
            emit(f"{data}[o] = {rd} & 0xFF" if size == 1 else
                 f"P{size}({data}, o, {rd} & {(1 << 8 * size) - 1})")
            counters = ("writes", "write_accesses", "st.stores")
        self.count(counters[2])
        self.count(f"{self.bind(storage)}.{counters[1]}")
        if region.kind == "lmb":
            self.count(f"{self.bind(region.owner)}.{counters[0]}")
        elif region.kind == "dispatcher":
            self.count(f"{self.bind(region.owner)}.data_accesses")
        else:
            self.ns["fabric"] = region.owner
            self.count("dmi")
            self.count("dmi_cycles", region.cycles)
        self.count("cycles", region.cycles)

    def serve(self, entry, imm32: int, region: DeviceRegion, pc: int) -> None:
        """A guarded device register access of ``entry`` through
        ``region``'s slave; the guards leave in front of ``pc``."""
        ins = entry.instruction
        size = entry.access_size
        mask = (1 << 8 * size) - 1
        before = dict(self.counts)
        emit = self.lines.append
        b = str(imm32) if ins.fmt is enc.Format.TYPE_B else self.reg(ins.rb)
        emit(f"if (({self.reg(ins.ra)} + {b}) & 0xFFFFFFFF) != "
             f"{region.address}: " + self.exit("region", before, pc))
        slave = self.bind(region.slave)
        for name in region.conditions:
            emit(f"if not {slave}.{name}: " + self.exit("device", before, pc))
        rd = self.reg(ins.rd)
        if entry.is_load:
            call = f"{slave}.target_read({region.address}, {size})"
            emit(f"{rd} = {call} & {mask}" if ins.rd else call)
            self.count("st.loads")
        else:
            emit(f"{slave}.target_write({region.address}, {rd} & {mask}, "
                 f"{size})")
            self.count("st.stores")
        self.ns["fabric"] = region.owner
        self.count("target")
        self.count("target_cycles", region.cycles)
        self.count("cycles", region.cycles)


def compile_trace(core, records, next_pc: int, stop: str
                  ) -> Optional[Trace]:
    """Compile recorded ``(entry, region, took_branch)`` triples.

    ``region`` is the :class:`TraceRegion` or :class:`DeviceRegion` that
    served an entry's load or store, or a string naming why a trace cannot
    (``"device"``, ``"read_only"``).  ``next_pc`` is where execution went
    after the last record and ``stop`` why recording ended there
    (``"loop"``: back at the first record's PC).  Returns None when not
    even the first instruction translates.
    """
    src = _Source(core)
    emit = src.lines.append
    end_pc, reason = next_pc, stop
    index = 0
    while index < len(records):
        first = records[index][0]
        pc = first.pc
        main = index + first.is_imm
        if first.is_imm and (main == len(records)
                             or records[main][0].is_imm):
            # What stopped the recording stopped the ``imm``'s consumer.
            end_pc, reason = pc, stop if main == len(records) \
                else "unsupported"
            break
        entry, region, taken = records[main]
        ins = entry.instruction
        fn = entry.handler.__func__
        imm32 = ((first.instruction.imm << 16) | ins.imm) & WORD_MASK \
            if first.is_imm else sign_extend(ins.imm, 16)
        delay = None
        if entry.delay_slot:
            if main + 1 == len(records):
                end_pc, reason = pc, stop
                break
            delay = records[main + 1][0]
            delay_lines = None if delay.is_load or delay.is_store \
                or delay.is_imm else _alu(
                    delay, sign_extend(delay.instruction.imm, 16), src.reg)
            if delay_lines is None:
                end_pc, reason = pc, _refusal(delay)
                break
        indirect = entry.mnemonic == "rtsd" or (
            fn is MicroBlazeCore._exec_branch
            and ins.fmt is not enc.Format.TYPE_B)
        if entry.is_load or entry.is_store:
            if isinstance(region, TraceRegion):
                src.access(entry, imm32, region, pc)
            elif isinstance(region, DeviceRegion):
                src.serve(entry, imm32, region, pc)
            else:
                end_pc, reason = pc, region
                break
        elif fn is MicroBlazeCore._exec_branch:
            # A static target needs no code: the record goes on there.
            if indirect:
                target = src.reg(ins.rb)
                emit("n_pc = " + (target if ins.absolute else
                                  f"({entry.pc} + {target}) & 0xFFFFFFFF"))
            if ins.link and ins.rd:
                emit(f"r{ins.rd} = {entry.pc}")
        elif fn is MicroBlazeCore._exec_cond_branch \
                and ins.fmt is enc.Format.TYPE_B:
            emit("tk = " + _TAKEN[ins.condition].format(src.reg(ins.ra)))
        elif indirect:
            emit(f"n_pc = ({src.reg(ins.ra)} + {imm32}) & 0xFFFFFFFF")
        else:
            lines = _alu(entry, imm32, src.reg)
            if lines is None:
                end_pc, reason = pc, _refusal(entry)
                break
            src.lines.extend(lines)
        if first.is_imm:
            src.retire(first)
        src.retire(entry, taken and ins.is_branch)
        index = main + 1
        if delay is not None:
            src.lines.extend(delay_lines)
            src.retire(delay)
            index += 1
        if fn is MicroBlazeCore._exec_cond_branch:
            # Leave where the branch goes the other way than recorded.
            other = dict(src.counts)
            other["st.branches_taken"] = other.get("st.branches_taken", 0) \
                + (-1 if taken else 1)
            off_path = entry.pc + (8 if delay is not None else 4) if taken \
                else (entry.pc + imm32) & WORD_MASK
            emit(("if not tk: " if taken else "if tk: ")
                 + src.exit("branch", other, off_path))
        elif indirect:
            end_pc, reason = "n_pc", "indirect"
            break
    else:
        if stop == "loop":
            end_pc = None
    if src.counts["retired"] == 0:
        return None
    head = records[0][0].pc
    if end_pc is None:
        src.lines += ["n += 1", f"if n == iters: k = 0; npc = {head}; break"]
    else:
        src.lines.append(src.exit(reason, src.counts, end_pc))
    return _build(src, head, end_pc is None)


def _build(src: _Source, head: int, loops: bool) -> Trace:
    """Wrap the body into ``trace(iters)`` with its exit epilogue."""
    per_pass = src.counts if loops else {}
    keys = sorted({key for row in src.rows for key in row}.union(per_pass)
                  - {"retired", "cycles"})
    keys = ["retired", "cycles"] + keys
    src.ns["ROWS"] = tuple(tuple(row.get(key, 0) for key in keys)
                           for row in src.rows)
    body = src.lines
    used = sorted({int(r) for line in body for r in _REGISTER.findall(line)})
    written = sorted({int(m.group(1)) for line in body
                      if (m := _WRITTEN.match(line))})
    carry = any(_CARRY.search(line) for line in body)
    out = ["def trace(iters):"]
    out += [f"    r{r} = R[{r}]" for r in used]
    if carry:
        out.append("    c = msr.carry")
    for name, storage in src.storages.values():
        out.append(f"    {name} = {src.bind(storage)}.buffer")
    out += ["    n = 0", "    while True:"]
    out += ["        " + line for line in body]
    out += [f"    R[{r}] = r{r}" for r in written]
    if carry:
        out.append("    msr.carry = c")
    out += ["    row = ROWS[k]", "    pm = st.per_mnemonic",
            "    pf = st.per_function"]
    totals = []
    for column, key in enumerate(keys):
        scale = per_pass.get(key, 0)
        totals.append(f"n * {scale} + row[{column}]" if scale
                      else f"row[{column}]")
        if key not in _FABRIC_KEYS:
            target = "st.instructions_retired" if key == "retired" else key
            out.append(f"    {target} += {totals[-1]}")
    for key, method in (("dmi", "account_direct"),
                        ("target", "account_target")):
        if key in keys:
            out.append(f"    fabric.{method}({DATA_MASTER}, "
                       f"{totals[keys.index(key)]}, "
                       f"{totals[keys.index(key + '_cycles')]})")
    out.append(f"    return npc, {totals[0]}, {totals[1]}, k")
    exec(compile("\n".join(out), f"<trace {head:#010x}>", "exec"), src.ns)
    trace = Trace()
    trace.run = src.ns["trace"]
    trace.length = src.counts["retired"]
    trace.cycles = src.counts["cycles"]
    trace.reasons = tuple(src.reasons)
    trace.pcs = frozenset(src.pcs)
    return trace

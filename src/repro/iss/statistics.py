"""Execution statistics for the ISS.

Tracks retired instructions, loads/stores, branches, interrupts, and --
when a symbol table is attached -- a per-function instruction profile.
The per-function profile is what substantiates the paper's section 5.4
observation that 52 % of the uClinux boot instructions execute inside
``memset`` and ``memcpy``, and the claim that intercepting them roughly
halves the boot time.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ..isa.symbols import SymbolTable


class ExecutionStatistics:
    """Counters describing what the ISS executed."""

    def __init__(self, symbols: Optional[SymbolTable] = None) -> None:
        self.symbols = symbols
        self.instructions_retired = 0
        self.loads = 0
        self.stores = 0
        self.branches_taken = 0
        self.interrupts_taken = 0
        #: Instructions whose execution was skipped by kernel-function
        #: interception (the instructions the paper executes "in zero time").
        self.instructions_intercepted = 0
        #: Number of times an interception handler fired.
        self.interception_hits = 0
        self.per_mnemonic: Counter[str] = Counter()
        self.per_function: Counter[str] = Counter()
        #: Simulated clock cycles attributed by the wrapper (not the core).
        self.cycles = 0
        #: Decoded-program cache entries built (one per PC and word).
        self.decoded_entries = 0
        #: Decoded-program cache entries dropped by stores into code.
        self.decoded_invalidations = 0
        #: Time quanta executed by the temporally-decoupled wrapper.
        self.quantum_warps = 0
        #: Instructions retired inside time quanta (subset of retired).
        self.quantum_instructions = 0
        #: Hot paths compiled into traces, and trace executions.
        self.traces_compiled = 0
        self.trace_runs = 0
        #: Why each trace execution ended, and why a trace too long for
        #: the warp's remaining budget or bound was not run.
        self.trace_exits: Counter[str] = Counter()
        #: Why each time quantum ended (one count per warp).
        self.warp_ends: Counter[str] = Counter()

    # -- recording ---------------------------------------------------------
    def attach_symbols(self, symbols: SymbolTable) -> None:
        """Attach (or replace) the symbol table used for profiling."""
        self.symbols = symbols

    def record_interrupt(self) -> None:
        """Record one taken interrupt."""
        self.interrupts_taken += 1

    def record_interception(self, skipped_instructions: int) -> None:
        """Record a kernel-function interception replacing N instructions."""
        self.interception_hits += 1
        self.instructions_intercepted += skipped_instructions

    def add_cycles(self, cycles: int) -> None:
        """Attribute simulated clock cycles (called by the wrapper)."""
        self.cycles += cycles

    # -- queries -------------------------------------------------------------
    @property
    def memory_accesses(self) -> int:
        """Total loads plus stores."""
        return self.loads + self.stores

    @property
    def effective_instructions(self) -> int:
        """Retired plus intercepted instructions.

        This is the figure the paper's "effective simulation speed of
        578 kHz" uses: instructions whose architectural effect happened,
        whether or not they were individually simulated.
        """
        return self.instructions_retired + self.instructions_intercepted

    def cycles_per_instruction(self) -> float:
        """Average CPI over the run so far (0 when nothing retired)."""
        if self.instructions_retired == 0:
            return 0.0
        return self.cycles / self.instructions_retired

    def function_fraction(self, *names: str) -> float:
        """Fraction of retired instructions spent in the named functions.

        Local labels follow the ``<function>_<suffix>`` naming convention
        (``memset_loop``, ``memcpy_done``), so instructions attributed to
        them count towards the enclosing function.
        """
        if self.instructions_retired == 0:
            return 0.0
        in_functions = 0
        for label, count in self.per_function.items():
            if any(label == name or label.startswith(f"{name}_")
                   for name in names):
                in_functions += count
        return in_functions / self.instructions_retired

    def top_functions(self, count: int = 5) -> list[tuple[str, int]]:
        """The ``count`` functions with the most retired instructions."""
        return self.per_function.most_common(count)

    def merge(self, other: "ExecutionStatistics") -> None:
        """Accumulate another statistics object into this one."""
        self.instructions_retired += other.instructions_retired
        self.loads += other.loads
        self.stores += other.stores
        self.branches_taken += other.branches_taken
        self.interrupts_taken += other.interrupts_taken
        self.instructions_intercepted += other.instructions_intercepted
        self.interception_hits += other.interception_hits
        self.cycles += other.cycles
        self.decoded_entries += other.decoded_entries
        self.decoded_invalidations += other.decoded_invalidations
        self.quantum_warps += other.quantum_warps
        self.quantum_instructions += other.quantum_instructions
        self.traces_compiled += other.traces_compiled
        self.trace_runs += other.trace_runs
        self.trace_exits.update(other.trace_exits)
        self.warp_ends.update(other.warp_ends)
        self.per_mnemonic.update(other.per_mnemonic)
        self.per_function.update(other.per_function)

    def summary(self) -> dict:
        """A plain-dict summary for reports and benchmarks."""
        return {
            "instructions_retired": self.instructions_retired,
            "instructions_intercepted": self.instructions_intercepted,
            "effective_instructions": self.effective_instructions,
            "loads": self.loads,
            "stores": self.stores,
            "branches_taken": self.branches_taken,
            "interrupts_taken": self.interrupts_taken,
            "interception_hits": self.interception_hits,
            "cycles": self.cycles,
            "cpi": self.cycles_per_instruction(),
            "decoded_entries": self.decoded_entries,
            "decoded_invalidations": self.decoded_invalidations,
            "quantum_warps": self.quantum_warps,
            "quantum_instructions": self.quantum_instructions,
            "traces_compiled": self.traces_compiled,
            "trace_runs": self.trace_runs,
            "trace_exits": dict(self.trace_exits),
            "warp_ends": dict(self.warp_ends),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ExecutionStatistics(retired="
                f"{self.instructions_retired}, cycles={self.cycles})")

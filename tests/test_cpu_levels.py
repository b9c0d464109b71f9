"""CPU-abstraction-level tests: the temporally-decoupled ISS fast path.

The accuracy contract of ``cpu_level="quantum"``: executing decoded
instructions in time quanta against DMI-backed memory -- charging each
quantum's protocol-derived cycle cost in a single timed wait -- produces
*identical* architectural results to the per-cycle execute thread on every
Figure 2 variant: instructions retired, console output, final register
state and exact cycle counts, on both kernel engines and every bus fabric.

Plus the seams the tentpole rides on: decoded-instruction-cache
invalidation under self-modifying code (store-driven, on the functional
ISS and on the platform fast path), quantum-boundary semantics --
interrupts arriving mid-quantum, the halt address inside a quantum,
instruction budgets not divisible by the quantum size, and route changes
between quanta -- and the compiled traces hot loops run as: a store into
a running trace's own code and every way a trace hands over to the
per-instruction path, each checked through the trace-exit counters.
"""

import dataclasses

import pytest

from repro.bus import (BUS_FUNCTIONAL, BUS_SIGNAL, BUS_TRANSACTION,
                       DATA_MASTER)
from repro.isa.assembler import assemble
from repro.iss import CPU_CYCLE, CPU_QUANTUM, cpu_levels, trace
from repro.iss.functional import FunctionalMicroBlaze
from repro.kernel import ENGINE_CLOCKED, ENGINE_GENERIC
from repro.kernel.errors import AlignmentError
from repro.peripherals import EthernetMacProxy
from repro.platform import (VanillaNetCluster, VanillaNetPlatform,
                            VariantName, all_systemc_variants,
                            cluster_config, memory_map as mm, variant_config)
from repro.software import (BootParams, build_boot_program,
                            interrupt_program, memory_exercise_program,
                            ping_echo_programs)
from repro.software.clib import clib_source
from repro.software.programs import BRAM_STACK_TOP, interrupt_source
from test_differential_fuzz import observe_cluster, observe_devices

SMALL_BOOT = BootParams(bss_bytes=32, kernel_copy_bytes=48,
                        page_clear_bytes=16, page_clear_count=1,
                        rootfs_copy_bytes=16, checksum_words=4,
                        progress_dots=1, timer_ticks=1,
                        timer_period_cycles=300, device_probe_rounds=1)


def boot_platform(variant: VariantName, cpu_level: str,
                  engine: str = ENGINE_GENERIC,
                  bus_level: str = BUS_FUNCTIONAL,
                  **config_updates) -> VanillaNetPlatform:
    config = variant_config(variant, engine=engine, bus_level=bus_level,
                            cpu_level=cpu_level)
    if config_updates:
        config = config.with_updates(**config_updates)
    platform = VanillaNetPlatform(config)
    platform.load_program(build_boot_program(SMALL_BOOT))
    return platform


def observe(platform: VanillaNetPlatform) -> dict:
    """Everything a CPU level must not change, statistics included."""
    stats = platform.statistics
    return {
        "instructions": stats.instructions_retired,
        "cycles": stats.cycles,
        "sim_cycles": platform.cycle_count,
        "console": platform.console_output,
        "registers": platform.architectural_state(),
        "loads": stats.loads,
        "stores": stats.stores,
        "branches_taken": stats.branches_taken,
        "per_mnemonic": dict(stats.per_mnemonic),
        "per_function": dict(stats.per_function),
        "devices": observe_devices(platform),
    }


def run_to_halt(platform: VanillaNetPlatform) -> dict:
    finished = platform.run_until_halt(max_cycles=900_000,
                                       chunk_cycles=2_000)
    return {"finished": finished, **observe(platform)}


class TestCpuLevelConfig:
    def test_levels_enumerated_cycle_first(self):
        assert cpu_levels()[0] == CPU_CYCLE
        assert set(cpu_levels()) == {CPU_CYCLE, CPU_QUANTUM}

    def test_variant_config_rejects_unknown_cpu_level(self):
        with pytest.raises(ValueError):
            variant_config(VariantName.INITIAL, cpu_level="turbo")

    def test_config_selects_cpu_level(self):
        platform = boot_platform(VariantName.NATIVE_TYPES, CPU_QUANTUM)
        assert platform.microblaze.cpu_level == CPU_QUANTUM
        baseline = boot_platform(VariantName.NATIVE_TYPES, CPU_CYCLE)
        assert baseline.microblaze.cpu_level == CPU_CYCLE
        described = variant_config(VariantName.NATIVE_TYPES,
                                   cpu_level=CPU_QUANTUM).describe()
        assert "quantum" in described

    def test_describe_includes_quantum_size(self):
        config = dataclasses.replace(
            variant_config(VariantName.NATIVE_TYPES,
                           cpu_level=CPU_QUANTUM),
            quantum_instructions=64)
        assert "quantum cpu (64 insn quantum)" in config.describe()
        baseline = variant_config(VariantName.NATIVE_TYPES,
                                  cpu_level=CPU_CYCLE)
        assert "insn quantum" not in baseline.describe()

    def test_quantum_size_plumbed(self):
        platform = boot_platform(VariantName.NATIVE_TYPES, CPU_QUANTUM,
                                 quantum_instructions=64)
        assert platform.microblaze.quantum_instructions == 64


class TestCrossLevelIdentity:
    """The tentpole accuracy contract, on every Figure 2 variant."""

    @pytest.fixture(scope="class")
    def level_runs(self):
        runs = {}
        for variant in all_systemc_variants():
            for level in cpu_levels():
                runs[variant, level] = run_to_halt(
                    boot_platform(variant, level))
        return runs

    def test_all_variants_finish(self, level_runs):
        for variant in all_systemc_variants():
            assert level_runs[variant, CPU_QUANTUM]["finished"], \
                f"{variant.value} on the quantum level did not reach _halt"

    @pytest.mark.parametrize("aspect", ["instructions", "console",
                                        "registers"])
    def test_architectural_identity(self, level_runs, aspect):
        for variant in all_systemc_variants():
            reference = level_runs[variant, CPU_CYCLE][aspect]
            measured = level_runs[variant, CPU_QUANTUM][aspect]
            assert measured == reference, \
                f"{variant.value}: {aspect} differs on the quantum level"

    def test_cycle_annotation_identity(self, level_runs):
        """Quanta charge exactly the per-cycle path's protocol cycles, so
        console output, IRQ timing and the halt all land on the same
        simulated cycle."""
        for variant in all_systemc_variants():
            reference = level_runs[variant, CPU_CYCLE]
            measured = level_runs[variant, CPU_QUANTUM]
            assert measured["cycles"] == reference["cycles"], variant.value
            assert measured["sim_cycles"] == reference["sim_cycles"], \
                variant.value

    def test_fast_path_engages_somewhere(self):
        """The identity above must not hold vacuously: on a DMI-backed
        variant the quantum path actually warps."""
        platform = boot_platform(VariantName.SUPPRESS_MAIN_MEMORY,
                                 CPU_QUANTUM)
        run_to_halt(platform)
        assert platform.statistics.quantum_warps > 0
        assert platform.statistics.quantum_instructions > 0

    def test_identity_holds_on_clocked_engine(self):
        results = {}
        for level in cpu_levels():
            results[level] = run_to_halt(boot_platform(
                VariantName.SUPPRESS_MAIN_MEMORY, level,
                engine=ENGINE_CLOCKED))
        assert results[CPU_CYCLE] == results[CPU_QUANTUM]

    def test_device_accesses_served_in_warp(self):
        """The probe's MAC and GPIO loads, the handler's ``TCSR`` read and
        clear and its ``IAR`` acknowledge run inside warps, performed and
        booked as the per-cycle path performs and books them."""
        boot = dataclasses.replace(SMALL_BOOT, device_probe_rounds=8,
                                   timer_ticks=4)
        results = {}
        for level in cpu_levels():
            platform = VanillaNetPlatform(variant_config(
                VariantName.KERNEL_FUNCTION_CAPTURE, engine=ENGINE_CLOCKED,
                bus_level=BUS_FUNCTIONAL, cpu_level=level))
            platform.load_program(build_boot_program(boot))
            fabric = platform.bus_fabric
            results[level] = {
                **run_to_halt(platform),
                "data_transfers": fabric.per_master_transfers[DATA_MASTER],
                "target_accesses": fabric.target_accesses,
            }
            stats = platform.statistics
        assert results[CPU_QUANTUM] == results[CPU_CYCLE]
        assert results[CPU_QUANTUM]["finished"]
        assert sum(stats.warp_ends.values()) == stats.quantum_warps
        assert (stats.quantum_warps, stats.warp_ends["device"]) == (10, 4)

    @pytest.mark.parametrize("bus_level", [BUS_SIGNAL, BUS_TRANSACTION])
    def test_identity_holds_on_slower_fabrics(self, bus_level):
        """On fabrics without (full) DMI the fast path engages rarely or
        never -- but selecting it must still be architecturally invisible."""
        results = {}
        for level in cpu_levels():
            results[level] = run_to_halt(boot_platform(
                VariantName.NATIVE_TYPES, level, bus_level=bus_level))
        assert results[CPU_CYCLE] == results[CPU_QUANTUM]


class TestDecodedCacheInvalidation:
    """Satellite: self-modifying code, decoded cache on and off."""

    PATCH_PASSES = 3

    def smc_program(self):
        # Three passes over a one-instruction "kernel"; after the first
        # pass the program stores a new instruction word over it (+1
        # becomes +100), so r3 = 1 + 100 + 100 = 201 -- but only if the
        # decoded-instruction cache drops the stale entry.
        patched_word = assemble("addik r3, r3, 100").words()[0][1]
        return assemble(f"""
_start:
    li      r1, {mm.BRAM_BASE + mm.BRAM_SIZE - 16:#x}
    addik   r3, r0, 0
    addik   r24, r0, 0
    addik   r22, r0, {self.PATCH_PASSES}
loop:
patch:
    addik   r3, r3, 1
    bnei    r24, skip_patch
    li      r20, patch
    li      r21, {patched_word:#x}
    swi     r21, r20, 0
    addik   r24, r0, 1
skip_patch:
    addik   r22, r22, -1
    bnei    r22, loop
    bri     _halt
_halt:
    bri     _halt
""", origin=mm.BRAM_BASE)

    EXPECTED_R3 = 201

    def test_functional_iss_cache_off_reference(self):
        system = FunctionalMicroBlaze(use_decoded_cache=False)
        system.memory = _bram_backed_memory()
        system.load_program(self.smc_program())
        system.run(max_instructions=10_000)
        assert system.register(3) == self.EXPECTED_R3

    def test_functional_iss_invalidates_on_store(self):
        results = {}
        for cached in (False, True):
            system = FunctionalMicroBlaze(use_decoded_cache=cached)
            system.memory = _bram_backed_memory()
            system.load_program(self.smc_program())
            retired = system.run(max_instructions=10_000)
            results[cached] = (retired, system.register(3),
                              system.register(22))
            assert system.register(3) == self.EXPECTED_R3
            if cached:
                assert system.core.stats.decoded_invalidations > 0
                assert system.core.stats.decoded_entries > 0
        assert results[False] == results[True]

    @pytest.mark.parametrize("engine", [ENGINE_GENERIC, ENGINE_CLOCKED])
    def test_platform_smc_identity_across_levels(self, engine):
        """The wrapper's quantum path invalidates on stores into code."""
        results = {}
        for level in cpu_levels():
            platform = VanillaNetPlatform(variant_config(
                VariantName.SUPPRESS_MAIN_MEMORY, engine=engine,
                bus_level=BUS_FUNCTIONAL, cpu_level=level))
            platform.load_program(self.smc_program())
            finished = platform.run_until_halt(max_cycles=200_000,
                                               chunk_cycles=1_000)
            assert finished
            state = platform.architectural_state()
            assert state["r3"] == self.EXPECTED_R3
            results[level] = {
                "registers": state,
                "instructions": platform.statistics.instructions_retired,
                "sim_cycles": platform.cycle_count,
            }
            if level == CPU_QUANTUM:
                assert platform.statistics.decoded_invalidations > 0
        assert results[CPU_CYCLE] == results[CPU_QUANTUM]

    def test_interception_writes_invalidate(self):
        """Native memset/memcpy writes go through the invalidating DMI
        facade, so interception stays SMC-safe with the cache on."""
        results = {}
        for cached in (False, True):
            system = FunctionalMicroBlaze(use_decoded_cache=cached)
            system.memory = _bram_backed_memory()
            system.load_program(memory_exercise_program())
            assert system.enable_interception() > 0
            system.run(max_instructions=100_000)
            results[cached] = system.register(3)
        assert results[False] == results[True]


def _bram_backed_memory():
    from repro.peripherals.memory import MemoryMap, MemoryStorage
    return MemoryMap([MemoryStorage("bram", mm.BRAM_BASE, mm.BRAM_SIZE)])


class TestQuantumBoundarySemantics:
    """Satellite: quanta must break out on exactly the right cycle."""

    @pytest.mark.parametrize("engine", [ENGINE_GENERIC, ENGINE_CLOCKED])
    def test_interrupts_mid_quantum(self, engine):
        """Timer interrupts land on the same cycle on both levels."""
        results = {}
        for level in cpu_levels():
            platform = VanillaNetPlatform(variant_config(
                VariantName.SUPPRESS_MAIN_MEMORY, engine=engine,
                bus_level=BUS_FUNCTIONAL, cpu_level=level))
            platform.load_program(interrupt_program(ticks=3,
                                                    timer_period=400))
            finished = platform.run_until_halt(max_cycles=400_000,
                                               chunk_cycles=1_000)
            assert finished
            results[level] = {
                "registers": platform.architectural_state(),
                "instructions": platform.statistics.instructions_retired,
                "sim_cycles": platform.cycle_count,
                "interrupts": platform.statistics.interrupts_taken,
            }
            assert results[level]["interrupts"] >= 3
        assert results[CPU_CYCLE] == results[CPU_QUANTUM]

    def test_budget_not_divisible_by_quantum(self):
        """Odd instruction budgets stop on the exact same instruction and
        cycle as the per-cycle path."""
        platforms = {level: boot_platform(
            VariantName.SUPPRESS_MAIN_MEMORY, level)
            for level in cpu_levels()}
        for budget in (777, 1, 1023, 42):
            for platform in platforms.values():
                platform.run_instructions(budget, chunk_cycles=2_000)
            cycle = platforms[CPU_CYCLE]
            quantum = platforms[CPU_QUANTUM]
            assert cycle.statistics.instructions_retired \
                == quantum.statistics.instructions_retired
            assert cycle.cycle_count == quantum.cycle_count
            assert cycle.console_output == quantum.console_output

    def test_small_quantum_still_identical(self):
        """A quantum size that never divides the workload's run lengths."""
        reference = run_to_halt(boot_platform(
            VariantName.SUPPRESS_MAIN_MEMORY, CPU_CYCLE))
        measured = run_to_halt(boot_platform(
            VariantName.SUPPRESS_MAIN_MEMORY, CPU_QUANTUM,
            quantum_instructions=7))
        assert measured == reference

    def test_halt_inside_quantum(self):
        """The halt address breaks the warp on its exact cycle even when
        the quantum's instruction budget would carry past it."""
        platform = boot_platform(VariantName.SUPPRESS_MAIN_MEMORY,
                                 CPU_QUANTUM,
                                 quantum_instructions=100_000)
        measured = run_to_halt(platform)
        reference = run_to_halt(boot_platform(
            VariantName.SUPPRESS_MAIN_MEMORY, CPU_CYCLE))
        assert measured == reference
        assert platform.statistics.quantum_warps > 0

    def test_dispatcher_toggle_between_quanta(self):
        """Route changes (the dispatcher toggles bump the route epoch)
        must invalidate cached fetch routing between quanta."""
        results = {}
        for level in cpu_levels():
            platform = boot_platform(VariantName.NATIVE_TYPES, level)
            platform.run_cycles(500)
            platform.set_instruction_memory_suppression(True)
            platform.set_main_memory_suppression(True)
            finished = platform.run_until_halt(max_cycles=900_000,
                                               chunk_cycles=2_000)
            assert finished
            assert platform.dispatcher.instruction_fetches > 0
            results[level] = {
                "console": platform.console_output,
                "registers": platform.architectural_state(),
                "sim_cycles": platform.cycle_count,
            }
        assert results[CPU_CYCLE] == results[CPU_QUANTUM]


# ---------------------------------------------------------------------- #
# compiled traces: stores into their own code and every side exit
# ---------------------------------------------------------------------- #
def hot_loop_program(body: str, passes: int = 40, setup: str = "",
                     data: str = "", handler: str = ""):
    """``body`` run ``passes`` times in a counted BRAM loop (r22)."""
    return assemble(f"""
_start:
    li      r1, {BRAM_STACK_TOP:#x}
{setup}
    addik   r22, r0, {passes}
hot_loop:
{body}
    addik   r22, r22, -1
    bnei    r22, hot_loop
    bri     _halt
_halt:
    bri     _halt
{handler}
    .align 4
{data}
""", origin=mm.BRAM_BASE)


def run_both_levels(program, drive=run_to_halt,
                    variant=VariantName.SUPPRESS_MAIN_MEMORY):
    """Drive ``program`` at both CPU levels, require identical
    observations, and return the quantum level's statistics (whose
    ``warp_ends`` count every warp once)."""
    results = {}
    for level in cpu_levels():
        platform = VanillaNetPlatform(variant_config(
            variant, engine=ENGINE_CLOCKED, bus_level=BUS_FUNCTIONAL,
            cpu_level=level))
        platform.load_program(program)
        results[level] = drive(platform)
    assert results[CPU_CYCLE] == results[CPU_QUANTUM]
    stats = platform.statistics
    assert stats.traces_compiled > 0 and stats.trace_runs > 0
    assert sum(stats.warp_ends.values()) == stats.quantum_warps
    return stats


class TestCompiledTraces:
    """Hot loops run as compiled traces; each hand-over to the
    per-instruction path leaves exactly the per-cycle state."""

    @pytest.fixture(autouse=True)
    def short_loops_compile(self, monkeypatch):
        # The loops below run tens of passes; compile them after 16.
        monkeypatch.setattr(trace, "TRACE_HOT_COUNT", 16)

    def test_store_into_running_trace(self):
        # Pass 30 of 40 stores over the loop's first instruction (+1
        # becomes +100) from inside the running trace: r3 = 30 + 10 * 100.
        patched = assemble("addik r3, r3, 100").words()[0][1]
        targets = ", ".join(["spare"] * 29 + ["patch"] + ["spare"] * 10)
        program = assemble(f"""
_start:
    li      r1, {BRAM_STACK_TOP:#x}
    li      r21, {patched:#x}
    li      r24, targets
    addik   r3, r0, 0
    addik   r22, r0, 40
hot_loop:
patch:
    addik   r3, r3, 1
    lwi     r23, r24, 0         # this pass's store target
    swi     r21, r23, 0
    addik   r24, r24, 4
    addik   r22, r22, -1
    bnei    r22, hot_loop
    bri     _halt
_halt:
    bri     _halt
    .align 4
spare:
    .word 0
targets:
    .word {targets}
""", origin=mm.BRAM_BASE)
        stats = run_both_levels(program)
        assert stats.trace_exits["smc"] == 1
        assert stats.decoded_invalidations > 0
        platform = VanillaNetPlatform(variant_config(
            VariantName.SUPPRESS_MAIN_MEMORY, bus_level=BUS_FUNCTIONAL,
            cpu_level=CPU_QUANTUM))
        platform.load_program(program)
        platform.run_until_halt(max_cycles=100_000)
        assert platform.architectural_state()["r3"] == 1030

    def test_instruction_budget(self):
        program = hot_loop_program("""
    addik   r3, r3, 7
    xor     r4, r4, r3
    swi     r4, r1, 0""", passes=400)

        def drive(platform):
            observed = []
            for budget in (777, 1, 1023, 42, 5, 300):
                platform.run_instructions(budget, chunk_cycles=2_000)
                observed.append(observe(platform))
            return observed

        assert run_both_levels(program, drive).trace_exits["budget"] > 0

    def test_run_window_bound(self):
        program = hot_loop_program("""
    addik   r3, r3, 7
    lwi     r4, r1, 0
    add     r4, r4, r3
    swi     r4, r1, 0""", passes=300)

        def drive(platform):
            observed = []
            while not platform.microblaze.finished:
                for window in (37, 101, 13, 250):
                    platform.run_cycles(window)
                    observed.append(observe(platform))
            return observed

        assert run_both_levels(program, drive).trace_exits["bound"] > 0

    def test_timer_wrap_bound(self):
        # One long run window: the timer's wrap is what bounds the warps
        # around the tick wait loop.
        def drive(platform):
            finished = platform.run_until_halt(max_cycles=400_000,
                                               chunk_cycles=100_000)
            return {"finished": finished,
                    "interrupts": platform.statistics.interrupts_taken,
                    **observe(platform)}

        stats = run_both_levels(interrupt_program(ticks=8, timer_period=300),
                                drive)
        assert stats.interrupts_taken == 8
        assert stats.trace_exits["bound"] > 0

    def test_halt_moved_onto_trace(self):
        program = hot_loop_program("""
    addik   r3, r3, 1
    addik   r4, r3, 5
    xor     r5, r5, r4""", passes=400)
        head = program.symbols.get("hot_loop")

        def drive(platform):
            # Stop on the loop head (3 prologue + 20 passes of 5), then
            # move the halt address into the compiled loop.
            platform.run_instructions(3 + 20 * 5)
            platform.microblaze.set_halt_address(head + 8)
            return run_to_halt(platform)

        assert run_both_levels(program, drive).trace_exits["halt"] >= 1

    def test_hooked_pc_with_interception_toggled(self):
        program = hot_loop_program("""
    li      r5, buffer
    addik   r6, r22, 0
    addik   r7, r0, 12
    brlid   r15, memset
    nop""", passes=60, data="buffer:\n    .space 16", handler=clib_source())

        def drive(platform):
            platform.set_kernel_function_capture(False)
            platform.run_cycles(3_000)
            platform.set_kernel_function_capture(True)
            finished = platform.run_until_halt(max_cycles=200_000)
            return {"finished": finished,
                    "intercepted":
                        platform.statistics.instructions_intercepted,
                    **observe(platform)}

        stats = run_both_levels(program, drive,
                                VariantName.KERNEL_FUNCTION_CAPTURE)
        assert stats.instructions_intercepted > 0
        assert stats.trace_exits["hooked"] > 0

    def test_ie_guard_during_interrupt_service(self):
        # The handler writes EAR with ``mts`` (an IE-setting mnemonic)
        # before acknowledging: the trace from its entry ends there while
        # the interrupt is latched.
        source = interrupt_source(ticks=24, timer_period=300).replace(
            "irq_handler:\n", "irq_handler:\n    addik   r9, r14, 4\n"
            "    mts     rear, r9\n")

        def drive(platform):
            finished = platform.run_until_halt(max_cycles=400_000,
                                               chunk_cycles=100_000)
            return {"finished": finished, **observe(platform)}

        stats = run_both_levels(assemble(source, origin=mm.BRAM_BASE), drive)
        assert stats.trace_exits["ie_guard"] > 0
        assert stats.warp_ends["ie_guard"] > 0

    def test_misaligned_access(self):
        # Pass 25 loads through an odd address: both levels stop on the
        # same instruction with the same alignment error.
        pointers = ", ".join(["value"] * 24 + ["value + 1"] + ["value"] * 5)
        program = hot_loop_program("""
    lwi     r23, r24, 0
    lwi     r3, r23, 0
    addik   r24, r24, 4""", passes=30, setup="    li      r24, pointers",
            data=f"value:\n    .word 7\npointers:\n    .word {pointers}")

        def drive(platform):
            with pytest.raises(AlignmentError):
                platform.run_until_halt(max_cycles=100_000)
            return observe(platform)

        stats = run_both_levels(program, drive)
        assert stats.trace_exits["misaligned"] == stats.warp_ends[
            "misaligned"] == 1

    def test_read_only_flash_target(self):
        program = hot_loop_program("""
    addik   r3, r3, 3
    swi     r3, r20, 0
    lwi     r4, r20, 0""", setup=f"    li      r20, {mm.FLASH_BASE:#x}")
        stats = run_both_levels(program, variant=VariantName.NATIVE_TYPES)
        assert stats.trace_exits["read_only"] > 0

    @pytest.mark.parametrize("variant", [VariantName.NATIVE_TYPES,
                                         VariantName.SUPPRESS_MAIN_MEMORY])
    def test_access_counters_match_per_instruction_path(self, variant,
                                                        monkeypatch):
        """BRAM, SDRAM (DMI or dispatcher) and FLASH accesses booked in
        batches at trace exits equal the per-instruction path's counts."""
        program = hot_loop_program(f"""
    lwi     r4, r20, 0
    addik   r4, r4, 3
    swi     r4, r20, 4
    lbui    r5, r20, 5
    shi     r5, r1, 0
    lwi     r6, r21, 0""", passes=300, setup=f"""
    li      r20, {mm.SDRAM_BASE + 0x100:#x}
    li      r21, {mm.FLASH_BASE:#x}""")

        def counters(hot_count):
            monkeypatch.setattr(trace, "TRACE_HOT_COUNT", hot_count)
            platform = VanillaNetPlatform(variant_config(
                variant, engine=ENGINE_CLOCKED, bus_level=BUS_FUNCTIONAL,
                cpu_level=CPU_QUANTUM))
            platform.load_program(program)
            while not platform.microblaze.finished:
                for window in (37, 101, 13, 250):
                    platform.run_cycles(window)
            fabric = platform.bus_fabric
            storages = [platform.lmb.bram, platform.dispatcher.main_memory,
                        fabric.dmi_region(mm.FLASH_BASE)[0]]
            return {
                "observed": observe(platform),
                "lmb": (platform.lmb.reads, platform.lmb.writes),
                "dispatcher": platform.dispatcher.data_accesses,
                "storages": [(storage.read_accesses, storage.write_accesses)
                             for storage in storages],
                "fabric": (fabric.transfer_count, fabric.cycles_spent,
                           fabric.transactions_granted, fabric.dmi_hits,
                           dict(fabric.per_master_transfers),
                           dict(fabric.per_master_transactions)),
                "traces": platform.statistics.traces_compiled,
            }

        hot_count = trace.TRACE_HOT_COUNT
        per_instruction = counters(10 ** 9)
        traced = counters(hot_count)
        assert per_instruction.pop("traces") == 0
        assert traced.pop("traces") > 0
        assert traced == per_instruction

    @pytest.mark.parametrize("variant", [VariantName.NATIVE_TYPES,
                                         VariantName.SUPPRESS_MAIN_MEMORY])
    def test_bound_break_books_each_access_once(self, variant):
        """An access in front of a bound break (here: the end of each run
        window) is booked once, by the path that then performs it."""
        program = hot_loop_program("""
    swi     r22, r1, 0
    swi     r22, r20, 0
    lwi     r5, r20, 0""", passes=300,
            setup=f"    li      r20, {mm.SDRAM_BASE + 0x100:#x}")

        def counters(level):
            platform = VanillaNetPlatform(variant_config(
                variant, engine=ENGINE_CLOCKED, bus_level=BUS_FUNCTIONAL,
                cpu_level=level))
            platform.load_program(program)
            while not platform.microblaze.finished:
                for window in (37, 101, 13, 250):
                    platform.run_cycles(window)
            return {
                "lmb_writes": platform.lmb.writes,
                "storage_writes": (platform.bram.write_accesses,
                                   platform.sdram.storage.write_accesses),
                "dispatcher": platform.dispatcher.data_accesses,
                "data_transfers":
                    platform.bus_fabric.per_master_transfers[DATA_MASTER],
            }

        assert counters(CPU_QUANTUM) == counters(CPU_CYCLE)

    def test_device_register(self):
        program = hot_loop_program("""
    addik   r3, r3, 1
    lwi     r4, r20, 8          # console UART status
    or      r5, r5, r4""", setup=f"    li      r20, {mm.CONSOLE_UART_BASE:#x}")
        assert run_both_levels(program).trace_exits["device"] > 0


class TestTracedDeviceAccesses:
    """The linked MAC's FIFO data registers, served inside compiled
    traces through the MAC's own hooks, with the fabric's bookkeeping
    batched at the trace exits."""

    @pytest.mark.parametrize("bus_level", [BUS_FUNCTIONAL, BUS_TRANSACTION])
    def test_mac_counters_match_per_instruction_path(self, bus_level,
                                                     monkeypatch):
        # 64-word frames: each frame loop (ping's stage and read loops,
        # the echo loop) compiles during the first frame at the default
        # hot count and runs compiled for the other two.
        programs = ping_echo_programs(payload=tuple(range(1, 65)), count=3)

        def counters(hot_count):
            monkeypatch.setattr(trace, "TRACE_HOT_COUNT", hot_count)
            cluster = VanillaNetCluster(cluster_config(
                2, engine=ENGINE_CLOCKED, bus_level=bus_level,
                cpu_level=CPU_QUANTUM))
            cluster.load_programs(programs)
            assert cluster.run_until_halt(max_cycles=200_000)
            # ``observe_cluster`` holds each MAC's access, transaction
            # and frame counters; the fabrics' come on top.
            fabrics = []
            for node in cluster.nodes:
                fabric = node.bus_fabric
                booked = [fabric.transfer_count, fabric.cycles_spent,
                          fabric.transactions_granted,
                          dict(fabric.per_master_transfers),
                          dict(fabric.per_master_transactions)]
                if bus_level == BUS_FUNCTIONAL:
                    booked += [fabric.dmi_hits, fabric.target_accesses]
                fabrics.append(booked)
            device_exits = sum(node.statistics.trace_exits["device"]
                               for node in cluster.nodes)
            return observe_cluster(cluster), fabrics, device_exits

        default = trace.TRACE_HOT_COUNT
        per_instruction = counters(10 ** 9)
        with monkeypatch.context() as patch:
            # Traces that leave at every FIFO access instead.
            patch.setattr(EthernetMacProxy, "trace_conditions",
                          lambda *_args: None)
            unserved = counters(default)
        traced = counters(default)
        assert per_instruction[2] == 0
        assert traced[:2] == unserved[:2] == per_instruction[:2]
        assert traced[2] < unserved[2]

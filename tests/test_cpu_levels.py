"""CPU-abstraction-level tests: the temporally-decoupled ISS fast path.

The accuracy contract of ``cpu_level="quantum"``: executing decoded
instructions in time quanta against DMI-backed memory -- charging each
quantum's protocol-derived cycle cost in a single timed wait -- produces
*identical* architectural results to the per-cycle execute thread on every
Figure 2 variant: instructions retired, console output, final register
state and exact cycle counts, on both kernel engines and every bus fabric.

Plus the seams the tentpole rides on: decoded-instruction-cache
invalidation under self-modifying code (store-driven, on the functional
ISS and on the platform fast path), and quantum-boundary semantics --
interrupts arriving mid-quantum, the halt address inside a quantum,
instruction budgets not divisible by the quantum size, and route changes
between quanta.
"""

import dataclasses

import pytest

from repro.bus import BUS_FUNCTIONAL, BUS_SIGNAL, BUS_TRANSACTION
from repro.isa.assembler import assemble
from repro.iss import CPU_CYCLE, CPU_QUANTUM, cpu_levels
from repro.iss.functional import FunctionalMicroBlaze
from repro.kernel import ENGINE_CLOCKED, ENGINE_GENERIC
from repro.platform import (VanillaNetPlatform, VariantName,
                            all_systemc_variants, memory_map as mm,
                            variant_config)
from repro.software import (BootParams, build_boot_program,
                            interrupt_program, memory_exercise_program)

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


def run_to_halt(platform: VanillaNetPlatform) -> dict:
    finished = platform.run_until_halt(max_cycles=900_000,
                                       chunk_cycles=2_000)
    return {
        "finished": finished,
        "instructions": platform.statistics.instructions_retired,
        "cycles": platform.statistics.cycles,
        "sim_cycles": platform.cycle_count,
        "console": platform.console_output,
        "registers": platform.architectural_state(),
    }


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

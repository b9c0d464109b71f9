"""The benchmark's seeded workloads.

Each workload turns a seed into concrete inputs -- assembled images and
memory contents -- builds the model from reset through the public
``repro.software`` / ``repro.platform`` API, drives it to its halt and
checks its outputs.  The model only ever sees the generated inputs; the
seed itself never reaches it.

Nothing here goes through ``repro.core`` (``Figure2Experiment``, the sweep,
the result cache): that package is slated for rework, and the benchmark
must keep measuring the same thing while it changes.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field, fields

from repro import software
from repro.platform import (VanillaNetCluster, VanillaNetPlatform,
                            VariantName, cluster_config, variant_config)
from repro.software import BootParams, bootgen

WORD_MASK = 0xFFFF_FFFF

#: ``addik`` takes a sign-extended 16-bit immediate, so every size the boot
#: program loads that way must stay below 2**15.
_IMM16_MAX = 0x7FFF
#: Room between the page pool and the root-filesystem copy destination.
_PAGE_POOL_BYTES = bootgen.ROOTFS_DEST_ADDRESS - bootgen.PAGE_POOL_ADDRESS
#: Extra cycles after the halt so the UART transmit thread (16-cycle sleep)
#: has moved every buffered character to the console, whatever cycle of a
#: run chunk the halt landed on.  (The cluster drains 256 cycles itself.)
_BOOT_DRAIN_CYCLES = 64


class Model:
    """What a workload's ``setup`` returns: the built model plus handles."""

    def __init__(self, top, sim, nodes, programs, link=None) -> None:
        self.top = top
        self.sim = sim
        self.nodes = nodes
        self.programs = programs
        self.link = link


# ---------------------------------------------------------------------- #
# seeded inputs
# ---------------------------------------------------------------------- #
def _scaled(base: int, factor: float, hi_cap: int | None = None) -> int:
    """``base * factor`` rounded, kept within +-10 % of ``base`` (rounding
    small counts could leave that band) and below ``hi_cap``."""
    value = min(max(round(base * factor), math.ceil(base * 0.9)),
                math.floor(base * 1.1))
    if hi_cap is not None:
        value = min(value, hi_cap)
    return max(1, value)


@dataclass(frozen=True)
class BootInputs:
    """Everything a seeded boot run loads into the model."""

    params: BootParams
    #: FLASH contents copied by the kernel-copy phase.
    kernel_image: bytes
    #: FLASH contents copied by the root-filesystem phase.
    rootfs_image: bytes
    #: ``(address, bytes)`` pre-fills of every memset target.
    prefill: tuple = field(default=())

    def describe(self) -> dict:
        return {f.name: getattr(self.params, f.name)
                for f in fields(self.params) if f.name != "banner"}


def boot_inputs(seed: int, scale: float) -> BootInputs:
    """Seeded boot inputs: ``BootParams().scaled(scale)`` sized by one
    seeded factor within +-10 %, FLASH kernel and rootfs images, and
    memset-target pre-fills.

    One factor for every phase keeps the ratio between the boot phases --
    memset/memcpy bytes against simulated cycles, which sets the host
    speed -- that of the base boot, so the seed varies the inputs without
    varying the speed being measured.  The page-clear count stays at its
    base value so the cleared bytes (count x size) also grow linearly.
    """
    rng = random.Random(f"boot/{seed}")
    base = BootParams().scaled(scale)
    factor = rng.uniform(0.9, 1.1)
    kernel_copy_bytes = _scaled(base.kernel_copy_bytes, factor, _IMM16_MAX)
    page_clear_count = base.page_clear_count
    params = BootParams(
        bss_bytes=_scaled(base.bss_bytes, factor, _IMM16_MAX),
        kernel_copy_bytes=kernel_copy_bytes,
        page_clear_bytes=_scaled(
            base.page_clear_bytes, factor,
            min(_IMM16_MAX, _PAGE_POOL_BYTES // page_clear_count)),
        page_clear_count=page_clear_count,
        rootfs_copy_bytes=_scaled(base.rootfs_copy_bytes, factor, _IMM16_MAX),
        # The checksum loop walks the copied kernel, so it stays inside it.
        checksum_words=_scaled(base.checksum_words, factor,
                               kernel_copy_bytes // 4),
        progress_dots=_scaled(base.progress_dots, factor),
        timer_period_cycles=base.timer_period_cycles,
        timer_ticks=_scaled(base.timer_ticks, factor, _IMM16_MAX),
        device_probe_rounds=_scaled(base.device_probe_rounds, factor),
    )
    kernel_image = rng.randbytes(params.kernel_copy_bytes)
    rootfs_image = rng.randbytes(params.rootfs_copy_bytes)
    prefill = [(bootgen.BSS_ADDRESS, rng.randbytes(params.bss_bytes))]
    for index in range(params.page_clear_count):
        prefill.append((bootgen.PAGE_POOL_ADDRESS
                        + index * params.page_clear_bytes,
                        rng.randbytes(params.page_clear_bytes)))
    return BootInputs(params, kernel_image, rootfs_image, tuple(prefill))


def boot_checksum(image: bytes, words: int) -> int:
    """The value the boot program's checksum loop leaves in ``checksum``."""
    total = 0
    for index in range(words):
        word = int.from_bytes(image[4 * index:4 * index + 4], "big")
        total = (total + word) & WORD_MASK
        total ^= (total << 1) & WORD_MASK
    return total


@dataclass(frozen=True)
class PingInputs:
    """A seeded ping/echo exchange."""

    count: int
    payload: tuple

    def describe(self) -> dict:
        return {"pings": self.count, "payload_words": len(self.payload)}


def ping_inputs(seed: int, count: int) -> PingInputs:
    """``count`` pings of one seeded 48-80-word frame."""
    rng = random.Random(f"ping/{seed}")
    length = rng.randint(48, 80)
    payload = tuple(rng.getrandbits(32) for __ in range(length))
    return PingInputs(count, payload)


# ---------------------------------------------------------------------- #
# simulated statistics
# ---------------------------------------------------------------------- #
def simulated_stats(model: Model) -> dict:
    """The deterministic outcome of a run; equal on every run of a seed."""
    cores = [node.statistics for node in model.nodes]
    consoles = "\x00".join(node.console_output for node in model.nodes)
    return {
        "cycles": model.nodes[0].cycle_count,
        "instructions": sum(s.instructions_retired for s in cores),
        "intercepted": sum(s.instructions_intercepted for s in cores),
        "warps": sum(s.quantum_warps for s in cores),
        "decoded_entries": sum(s.decoded_entries for s in cores),
        "interrupts": sum(s.interrupts_taken for s in cores),
        "frames": model.link.frames_delivered if model.link else 0,
        "console_sha256": hashlib.sha256(
            consoles.encode()).hexdigest()[:16],
    }


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
class BootWorkload:
    """A seeded synthetic uClinux boot on one node."""

    def __init__(self, name: str, variant: VariantName,
                 bus_level: str, cpu_level: str, scale: float,
                 max_cycles: int) -> None:
        self.name = name
        self.config = variant_config(variant, engine="clocked",
                                     bus_level=bus_level,
                                     cpu_level=cpu_level)
        self.scale = scale
        self.max_cycles = max_cycles

    def inputs(self, seed: int) -> BootInputs:
        return boot_inputs(seed, self.scale)

    def setup(self, inputs: BootInputs) -> Model:
        program = software.build_boot_program(inputs.params)
        platform = VanillaNetPlatform(self.config)
        platform.load_program(program)
        memory = platform.memory_map
        for address, data in ((bootgen.KERNEL_SOURCE_ADDRESS,
                               inputs.kernel_image),
                              (bootgen.ROOTFS_SOURCE_ADDRESS,
                               inputs.rootfs_image)) + inputs.prefill:
            memory.region_for(address, len(data)).load_bytes(address, data)
        return Model(platform, platform.sim, [platform], [program])

    def run(self, model: Model) -> bool:
        platform = model.top
        halted = platform.run_until_halt(max_cycles=self.max_cycles)
        if halted:
            platform.run_cycles(_BOOT_DRAIN_CYCLES)
        return halted

    def check(self, model: Model, inputs: BootInputs,
              halted: bool) -> list[str]:
        """Every output check; returns the failures (empty when correct)."""
        platform = model.top
        params = inputs.params
        memory = platform.memory_map
        failures = []
        if not halted:
            failures.append(f"no halt within {self.max_cycles} cycles")
        console = platform.console_output
        for fragment in ("uClinux", "boot complete",
                         "\n" + "." * params.progress_dots + "VFS:"):
            if fragment not in console:
                failures.append(f"console lacks {fragment!r}")

        def dump(address: int, length: int) -> bytes:
            return memory.region_for(address, length).dump(address, length)

        if dump(bootgen.KERNEL_DEST_ADDRESS, params.kernel_copy_bytes) \
                != inputs.kernel_image:
            failures.append("SDRAM kernel copy differs from the FLASH image")
        if dump(bootgen.ROOTFS_DEST_ADDRESS, params.rootfs_copy_bytes) \
                != inputs.rootfs_image:
            failures.append("SDRAM rootfs copy differs from the FLASH image")
        checksum = memory.read(model.programs[0].symbols.get("checksum"), 4)
        expected = boot_checksum(inputs.kernel_image, params.checksum_words)
        if checksum != expected:
            failures.append(f"checksum {checksum:#010x} != {expected:#010x}")
        for address, data in inputs.prefill:
            if dump(address, len(data)) != bytes(len(data)):
                failures.append(f"memset target {address:#010x} not zeroed")
        return failures


class PingWorkload:
    """Two linked nodes exchanging seeded ping/echo frames."""

    def __init__(self, name: str, count: int, max_cycles: int) -> None:
        self.name = name
        self.config = cluster_config(2, VariantName.NATIVE_TYPES,
                                     engine="clocked",
                                     bus_level="functional",
                                     cpu_level="quantum")
        self.count = count
        self.max_cycles = max_cycles

    def inputs(self, seed: int) -> PingInputs:
        return ping_inputs(seed, self.count)

    def setup(self, inputs: PingInputs) -> Model:
        programs = software.ping_echo_programs(inputs.payload, inputs.count)
        cluster = VanillaNetCluster(self.config)
        cluster.load_programs(programs)
        return Model(cluster, cluster.sim, list(cluster.nodes),
                     list(programs), link=cluster.link)

    def run(self, model: Model) -> bool:
        return model.top.run_until_halt(max_cycles=self.max_cycles)

    def check(self, model: Model, inputs: PingInputs,
              halted: bool) -> list[str]:
        """Every output check; returns the failures (empty when correct)."""
        count = inputs.count
        failures = []
        if not halted:
            failures.append(f"no halt within {self.max_cycles} cycles")
        ping, echo = model.nodes
        for node, line in ((ping, f"ping: {count} replies ok"),
                           (echo, f"echo: {count} frames bounced")):
            if line not in node.console_output:
                failures.append(f"console lacks {line!r}")
        if model.link.frames_delivered != 2 * count:
            failures.append(f"{model.link.frames_delivered} frames delivered,"
                            f" expected {2 * count}")
        result = model.programs[0].symbols.get("result")
        words = [ping.memory_map.read(result + 4 * i, 4) for i in range(2)]
        expected = [(count * sum(inputs.payload)) & WORD_MASK, count]
        if words != expected:
            failures.append(f"ping result {words} != {expected}")
        return failures


#: Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {
    workload.name: workload for workload in (
        BootWorkload("boot_cycle", VariantName.REDUCED_SCHEDULING,
                     bus_level="signal", cpu_level="cycle", scale=1.0,
                     max_cycles=400_000),
        BootWorkload("boot_capture", VariantName.KERNEL_FUNCTION_CAPTURE,
                     bus_level="functional", cpu_level="quantum", scale=30.0,
                     max_cycles=400_000),
        PingWorkload("cluster_ping", count=200, max_cycles=1_500_000),
    )
}

"""Standing differential-fuzz gate across every execution seam.

The repo has three independent execution seams -- ``engine``
(generic/clocked kernel), ``bus_level`` (signal/transaction/functional
fabric) and ``cpu_level`` (per-cycle/quantum ISS) -- and the standing
claim that all twelve combinations are *bit-identical* observers of the
same architecture: same registers, same console bytes, same cycle
counts.  Hand-written identity tests (test_cpu_levels,
test_bus_transport) pin known-interesting programs; this module keeps
the claim honest against programs nobody wrote:

* a fixed two-node ping/echo run, the acceptance gate for the cluster
  tentpole (frame traffic + RX interrupts through every seam combo);
* hypothesis-generated instruction streams on a single node: a counted
  loop around ALU, memory, device-register (GPIO, unlinked MAC, timer,
  interrupt controller) and 32-bit ``li`` instructions with forward
  conditional skips, run with every path compiled into a trace the
  first time it runs at the quantum level, comparing the devices' state
  too;
* hypothesis-generated frame traffic (payload shapes x ping counts x
  link latencies, including back-to-back bursts inside one latency
  window) on a two-node cluster, with every path compiled on first use
  (so the frame loops' MAC FIFO accesses run inside traces), comparing
  each MAC's access, transaction and frame counters too;
* deterministic link-latency corner cases: latency=1 (the degenerate
  warp horizon) and frames delivered exactly on a quantum boundary.

A combo that raises fails the test as an ``AssertionError`` naming the
combo, with the traceback as text, so Hypothesis shrinks the example
without keeping its platforms alive (see :func:`observe_combos`).

Reproducing a failure: hypothesis prints the falsifying example and a
``reproduce_failure`` blob on stderr, and stores it in ``.hypothesis/``
(the CI fuzz job uploads that directory as an artifact).  Re-running the
same example locally:

    PYTHONPATH=src python -m pytest tests/test_differential_fuzz.py \
        --hypothesis-seed=<seed printed by the failing run>

The example budget is deliberately small under tier-1 (this file is a
gate, not a soak) and raised in the dedicated CI fuzz job through
``REPRO_FUZZ_EXAMPLES``.
"""

import os
import traceback

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.bus import bus_levels
from repro.datatypes import WORD_MASK
from repro.iss import cpu_levels, trace
from repro.kernel import ENGINE_CLOCKED, ENGINE_GENERIC
from repro.isa.assembler import assemble
from repro.platform import (VanillaNetCluster, VanillaNetPlatform,
                            VariantName, cluster_config, memory_map as mm,
                            variant_config)
from repro.software import burst_echo_programs, ping_echo_programs
from repro.software.clib import clib_source
from repro.software.programs import BRAM_STACK_TOP

#: Per-test example budget; the CI fuzz job raises it well above the
#: tier-1 default.
MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "3"))

#: Every engine x bus_level x cpu_level combination (12 as of this PR).
COMBOS = [(engine, bus_level, cpu_level)
          for engine in (ENGINE_GENERIC, ENGINE_CLOCKED)
          for bus_level in bus_levels()
          for cpu_level in cpu_levels()]

FUZZ_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,                      # platform builds take ~1s
    suppress_health_check=[HealthCheck.too_slow],
    # Shrinking stays on; the explain phase goes, because it traces every
    # run after the first failure line by line, which slows a simulation
    # so much that shrinking one raising example can use up Hypothesis's
    # five-minute shrink budget.
    phases=tuple(phase for phase in Phase if phase is not Phase.explain),
)


def combo_id(combo) -> str:
    return "/".join(combo)


def observe_statistics(stats) -> dict:
    """The ISS statistics a trace batches at its exits."""
    return {
        "instructions": stats.instructions_retired,
        "cycles": stats.cycles,
        "loads": stats.loads,
        "stores": stats.stores,
        "branches_taken": stats.branches_taken,
        "per_mnemonic": dict(stats.per_mnemonic),
        "per_function": dict(stats.per_function),
    }


def observe_devices(platform) -> dict:
    """The register peripherals' state and every OPB slave's accepted
    transactions."""
    gpio, timer = platform.gpio, platform.timer
    intc, mac = platform.intc, platform.ethernet
    return {
        "transactions": {slave.name: slave.transactions
                         for slave in platform.bus_fabric.slaves},
        "gpio": (gpio.data, gpio.tristate, list(gpio.output_history)),
        "timer": (timer.control, timer.load_value, timer.counter,
                  timer.expirations),
        "intc": (intc.isr, intc.ier, intc.mer),
        "mac": (dict(mac.registers), mac.access_count),
    }


def observe_platform(platform) -> dict:
    """Everything the identity claim quantifies over, single node."""
    return {
        "registers": platform.architectural_state(),
        "console": platform.console_output,
        "sim_cycles": platform.cycle_count,
        "devices": observe_devices(platform),
        **observe_statistics(platform.statistics),
    }


def observe_cluster(cluster) -> dict:
    return {
        "states": cluster.architectural_states(),
        "consoles": cluster.console_outputs(),
        "sim_cycles": cluster.cycle_count,
        "frames_switched": cluster.link.frames_switched,
        "frames_delivered": cluster.link.frames_delivered,
        "statistics": [observe_statistics(node.statistics)
                       for node in cluster.nodes],
        "macs": [(node.ethernet.access_count, node.ethernet.transactions,
                  node.ethernet.frames_sent, node.ethernet.frames_received,
                  node.ethernet.frames_dropped) for node in cluster.nodes],
    }


def observe_combos(run) -> dict:
    """``run(engine, bus_level, cpu_level)``'s observation on every combo.

    A combo that raises fails the test with an ``AssertionError`` naming
    the combo and carrying the formatted traceback as text.  It is raised
    only after the original exception is gone: Hypothesis keeps every
    failing example's exception while it shrinks, and a traceback through
    the simulation would keep that example's platforms (about 70 MB each)
    alive with it.
    """
    results = {}
    for combo in COMBOS:
        failure = None
        try:
            results[combo] = run(*combo)
        except Exception:
            failure = f"{combo_id(combo)} raised:\n{traceback.format_exc()}"
        if failure is not None:
            raise AssertionError(failure)
    return results


def assert_identical(results: dict) -> None:
    """All per-combo observations equal the first combo's observation."""
    reference_combo = COMBOS[0]
    reference = results[reference_combo]
    for combo, result in results.items():
        assert result == reference, (
            f"{combo_id(combo)} diverges from {combo_id(reference_combo)}")


# ---------------------------------------------------------------------- #
# the deterministic acceptance gate: 2-node ping/echo, all 12 combos
# ---------------------------------------------------------------------- #
class TestClusterSeamIdentity:
    def test_two_node_ping_echo_identical_on_every_combo(self):
        def run(engine, bus_level, cpu_level):
            cluster = VanillaNetCluster(cluster_config(
                2, engine=engine, bus_level=bus_level, cpu_level=cpu_level))
            cluster.load_programs(ping_echo_programs(count=2))
            assert cluster.run_until_halt(max_cycles=100_000)
            return observe_cluster(cluster)

        results = observe_combos(run)
        reference = results[COMBOS[0]]
        assert reference["consoles"] == ["ping: 2 replies ok\n",
                                         "echo: 2 frames bounced\n"]
        assert reference["frames_delivered"] == 4
        assert_identical(results)


# ---------------------------------------------------------------------- #
# fuzzed looping instruction streams, single node
# ---------------------------------------------------------------------- #
#: General registers the generated stream may touch.  r0 is the zero
#: register, r1 the stack, r13 the scratch base, r14/r15 link registers,
#: r19 the loop counter, r20-r23 are clib-clobbered -- the stream works in
#: r2..r12.
STREAM_REGS = tuple(range(2, 13))

_reg = st.sampled_from(STREAM_REGS)
_imm16 = st.integers(min_value=-32768, max_value=32767)
_uimm16 = st.integers(min_value=0, max_value=0xFFFF)
_shift = st.integers(min_value=0, max_value=31)
_offset = st.sampled_from(range(0, 64, 4))

_three_reg = st.tuples(
    st.sampled_from(["add", "rsub", "and", "or", "xor", "mul"]),
    _reg, _reg, _reg,
).map(lambda t: f"{t[0]:<7} r{t[1]}, r{t[2]}, r{t[3]}")

_reg_imm = st.one_of(
    st.tuples(st.just("addik"), _reg, _reg, _imm16),
    st.tuples(st.sampled_from(["andi", "ori", "xori"]), _reg, _reg, _uimm16),
).map(lambda t: f"{t[0]:<7} r{t[1]}, r{t[2]}, {t[3]}")

_shift_imm = st.tuples(
    st.sampled_from(["bslli", "bsrai", "bsrli"]), _reg, _reg, _shift,
).map(lambda t: f"{t[0]:<7} r{t[1]}, r{t[2]}, {t[3]}")

_extend = st.tuples(
    st.sampled_from(["sext8", "sext16"]), _reg, _reg,
).map(lambda t: f"{t[0]:<7} r{t[1]}, r{t[2]}")

#: Loads and stores go through the bus fabrics under test -- the most
#: seam-sensitive instructions in the pool.  The scratch buffer keeps
#: them at safe, word-aligned addresses.
_memory = st.tuples(
    st.sampled_from(["swi", "lwi"]), _reg, _offset,
).map(lambda t: f"{t[0]:<7} r{t[1]}, r13, {t[2]}")

#: Device registers, as offsets from ``DEVICE_BASE`` (held in r24, which
#: the stream never writes): GPIO ``DATA``/``TRISTATE`` and every register
#: of the unlinked MAC are loaded and stored; timer ``TCSR``, ``TLR`` and
#: ``TCR`` and controller ``ISR``, ``IPR``, ``IER`` and ``MER`` loaded;
#: ``TLR`` stored.  ``TCSR`` stores come from :data:`_tcsr_store`.
DEVICE_BASE = 0xFFFF_0000
_GPIO = mm.GPIO_BASE - DEVICE_BASE
_MAC = mm.ETHERNET_BASE - DEVICE_BASE
_TIMER = mm.TIMER_BASE - DEVICE_BASE
_INTC = mm.INTC_BASE - DEVICE_BASE
_READ_WRITE = [_GPIO, _GPIO + 4] + [_MAC + offset
                                    for offset in range(0, 0x2C, 4)]
_READ_ONLY = [_TIMER, _TIMER + 4, _TIMER + 8] \
    + [_INTC + offset for offset in (0x00, 0x04, 0x08, 0x1C)]

_device = st.one_of(
    st.tuples(st.just("lwi"), _reg,
              st.sampled_from(_READ_WRITE + _READ_ONLY)),
    st.tuples(st.just("swi"), _reg, st.sampled_from(_READ_WRITE
                                                    + [_TIMER + 4])),
).map(lambda t: f"{t[0]:<7} r{t[1]}, r24, {t[2]:#x}")

#: A ``TCSR`` store built from a stream register's control bits (the
#: ``TINT`` write-one-to-clear among them) that keeps the counter's
#: ``ENABLE`` as it is or flips it; r25/r26 are its temporaries.
_tcsr_store = st.tuples(st.booleans(), _reg).map(lambda t: "\n".join((
    f"lwi     r25, r24, {_TIMER:#x}",
    "andi    r25, r25, 1",
    f"xori    r25, r25, {int(t[0])}",
    f"andi    r26, r{t[1]}, 0x1FE",
    "or      r25, r25, r26",
    f"swi     r25, r24, {_TIMER:#x}")))

#: One word each: what may sit in a branch's delay slot.
_single = st.one_of(_three_reg, _reg_imm, _shift_imm, _extend, _memory,
                    _device)

#: ``li`` with a full 32-bit immediate: an ``imm``/``addik`` pair.
_load_immediate = st.tuples(
    _reg, st.integers(min_value=0, max_value=WORD_MASK),
).map(lambda t: f"li      r{t[0]}, {t[1]:#x}")

_instruction = st.one_of(_single, _load_immediate, _tcsr_store)

#: A forward conditional skip over a few instructions, with or without
#: a delay slot: ``(condition, register, delay-slot word or None, body)``.
_skip = st.tuples(
    st.sampled_from(["beqi", "bnei", "blti"]), _reg,
    st.one_of(st.none(), _single),
    st.lists(_instruction, min_size=1, max_size=4),
)

#: One register seed per stream register (loaded before the stream runs).
_seeds = st.lists(_imm16, min_size=len(STREAM_REGS),
                  max_size=len(STREAM_REGS))

_stream = st.lists(st.one_of(_instruction, _skip), min_size=1, max_size=24)

#: Passes of the generated loop.
_passes = st.integers(min_value=1, max_value=6)


def stream_lines(stream) -> list:
    """Source lines of a stream; skips become forward branches."""
    lines = []
    for number, item in enumerate(stream):
        if isinstance(item, str):
            lines.extend(item.splitlines())
            continue
        condition, register, delay, body = item
        if delay is None:
            lines.append(f"{condition:<7} r{register}, skip_{number}")
        else:
            lines.append(f"{condition + 'd':<7} r{register}, skip_{number}")
            lines.append(delay)
        for instruction in body:
            lines.extend(instruction.splitlines())
        lines.append(f"skip_{number}:")
    return lines


def stream_program(seeds, stream, passes=1):
    """Assemble a looping stream into a bootable BRAM image.

    The stream runs ``passes`` times in a counted loop, with the device
    registers' base in r24.  The epilogue
    routes one stream-derived byte through the console UART so the fuzz
    also differentiates the interrupt-driven print path, and then halts.
    """
    seed_lines = "\n".join(
        f"    addik   r{reg}, r0, {value}"
        for reg, value in zip(STREAM_REGS, seeds))
    body = "\n".join(line if line.endswith(":") else f"    {line}"
                     for line in stream_lines(stream))
    source = f"""
_start:
    li      r1, {BRAM_STACK_TOP:#x}
    li      r13, scratch
    li      r24, {DEVICE_BASE:#x}
{seed_lines}
    addik   r19, r0, {passes}
stream_loop:
{body}
    addik   r19, r19, -1
    bnei    r19, stream_loop
    andi    r5, r3, 0x3F
    addik   r5, r5, 0x20        # printable ASCII
    brlid   r15, putchar
    nop
    bri     _halt
_halt:
    bri     _halt
""" + clib_source() + """
    .align 4
scratch:
    .space 64
"""
    return assemble(source, origin=mm.BRAM_BASE)


class TestInstructionStreamFuzz:
    @FUZZ_SETTINGS
    @given(seeds=_seeds, stream=_stream, passes=_passes)
    def test_streams_identical_on_every_combo(self, seeds, stream, passes):
        program = stream_program(seeds, stream, passes)

        def run(engine, bus_level, cpu_level):
            platform = VanillaNetPlatform(variant_config(
                VariantName.NATIVE_TYPES, engine=engine,
                bus_level=bus_level, cpu_level=cpu_level))
            platform.load_program(program)
            assert platform.run_until_halt(max_cycles=50_000,
                                           chunk_cycles=1_000)
            return observe_platform(platform)

        with pytest.MonkeyPatch.context() as patch:
            # Every path compiles into a trace the first time it runs.
            patch.setattr(trace, "TRACE_HOT_COUNT", 1)
            results = observe_combos(run)
        assert_identical(results)


# ---------------------------------------------------------------------- #
# fuzzed frame traffic, two-node cluster, link-latency sweep
# ---------------------------------------------------------------------- #
_payload = st.lists(st.integers(min_value=0, max_value=WORD_MASK),
                    min_size=1, max_size=8)
_ping_count = st.integers(min_value=1, max_value=3)
#: Link latencies the traffic fuzz sweeps.  latency=1 is the degenerate
#: horizon (the RX warp bound collapses to a single cycle), 8 the
#: default, the others probe odd/large strides of the leapfrog chaining.
_latency = st.sampled_from((1, 2, 8, 13))


def run_traffic(programs, latency, chunk_cycles=2_000,
                max_cycles=150_000) -> dict:
    """One program pair through all 12 combos; identical observations."""
    def run(engine, bus_level, cpu_level):
        cluster = VanillaNetCluster(cluster_config(
            2, engine=engine, bus_level=bus_level, cpu_level=cpu_level,
            link_latency_cycles=latency))
        cluster.load_programs(programs)
        assert cluster.run_until_halt(max_cycles=max_cycles,
                                      chunk_cycles=chunk_cycles)
        return observe_cluster(cluster)

    with pytest.MonkeyPatch.context() as patch:
        # Every path compiles into a trace the first time it runs, so the
        # frame loops serve their FIFO words inside traces even on short
        # payloads.
        patch.setattr(trace, "TRACE_HOT_COUNT", 1)
        results = observe_combos(run)
    assert_identical(results)
    return results[COMBOS[0]]


class TestTrafficPatternFuzz:
    @FUZZ_SETTINGS
    @given(payload=_payload, count=_ping_count, latency=_latency)
    def test_traffic_identical_on_every_combo(self, payload, count,
                                              latency):
        programs = ping_echo_programs(payload=tuple(payload), count=count)
        reference = run_traffic(programs, latency)
        assert reference["consoles"][0] == f"ping: {count} replies ok\n"
        assert reference["frames_switched"] == 2 * count

    @FUZZ_SETTINGS
    @given(payload=_payload, burst=st.integers(min_value=2, max_value=4),
           latency=_latency)
    def test_back_to_back_frames_identical_on_every_combo(
            self, payload, burst, latency):
        """All frames of a burst are in flight within one latency window.

        The burst-ping image commits every frame before waiting, so the
        echo node takes its RX interrupt with further frames still
        arriving, and re-enables ``RX_IE`` while the queue is non-empty
        -- the orderings the warp horizon must not blur.
        """
        programs = burst_echo_programs(payload=tuple(payload), burst=burst)
        reference = run_traffic(programs, latency)
        assert reference["consoles"][0] == f"burst: {burst} replies ok\n"
        assert reference["frames_switched"] == 2 * burst


class TestLinkLatencyEdgeCases:
    """Deterministic corner cases riding next to the fuzz."""

    def test_latency_one_identical_on_every_combo(self):
        """The tightest legal horizon: delivery one cycle after commit."""
        reference = run_traffic(ping_echo_programs(count=3), latency=1)
        assert reference["consoles"][0] == "ping: 3 replies ok\n"

    def test_frame_on_quantum_boundary_identical_on_every_combo(self):
        """Frames landing exactly on a quantum boundary change nothing.

        With ``chunk_cycles=1`` every cycle *is* a quantum boundary, so
        each frame delivery coincides with one by construction; the
        observation must match a coarsely-chunked run bit for bit
        (chunking is measurement cadence, never architecture).
        """
        programs = ping_echo_programs(count=2)
        boundary = run_traffic(programs, latency=8, chunk_cycles=1,
                               max_cycles=50_000)
        coarse = run_traffic(programs, latency=8, chunk_cycles=2_000,
                             max_cycles=50_000)
        assert boundary == coarse

"""The traced run and the per-layer metrics it yields.

Host time per layer comes from the spans of :mod:`tracer`; the work
counters come from the model's public statistics objects (``sim.stats``,
each core's ``stats``, the fabric's ``transfer_count``, the dispatcher's
and the switch's counters), which repeat exactly for a given seed.
"""

from __future__ import annotations

from collections import defaultdict

from measure import Run, metric
from tracer import SpanRecorder, Tracer

#: Layers with spans of their own; ``signals`` gets counters only.
SPANNED_LAYERS = ("kernel", "bus", "iss", "peripherals", "platform",
                  "software")

#: Every per-layer metric: ``(name, unit, better)``.
PER_LAYER_METRICS = tuple(
    [(f"{layer}.{kind}", unit, "lower")
     for layer in SPANNED_LAYERS
     for kind, unit in (("self_s", "s"), ("share", "ratio"),
                        ("calls", "count"))]
    + [
        ("kernel.activations_per_kcycle", "1/kcycle", "lower"),
        ("kernel.deltas_per_kcycle", "1/kcycle", "lower"),
        ("kernel.timed_steps_per_kcycle", "1/kcycle", "lower"),
        ("kernel.edges_skipped_share", "ratio", "higher"),
        ("signals.updates_per_kcycle", "1/kcycle", "lower"),
        ("signals.events_per_kcycle", "1/kcycle", "lower"),
        ("bus.transfers_per_kcycle", "1/kcycle", "lower"),
        ("iss.instructions", "count", "lower"),
        ("iss.intercepted", "count", "higher"),
        ("iss.cpi", "cycles/insn", "lower"),
        ("iss.quantum_share", "ratio", "higher"),
        ("iss.insns_per_warp", "insns/warp", "higher"),
        ("iss.decoded_entries", "count", "lower"),
        ("iss.interrupts", "count", "lower"),
        ("peripherals.dispatcher_accesses", "count", "lower"),
        ("peripherals.console_chars", "count", "higher"),
        ("platform.frames_delivered", "count", "higher"),
        ("platform.build_s", "s", "lower"),
        ("platform.load_s", "s", "lower"),
        ("software.assemble_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ])

#: Span groups whose outermost inclusive time is reported on its own.
_BUILD_SPANS = ("platform.VanillaNetPlatform.__init__",
                "platform.VanillaNetCluster.__init__")
_LOAD_SPANS = ("platform.VanillaNetPlatform.load_program",
               "platform.VanillaNetCluster.load_programs")
_ASSEMBLE_SPANS = ("software.build_boot_program",
                   "software.ping_echo_programs")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class TracedRun:
    """One workload run with every layer boundary and process body spanned.

    The class-level wrappers go in before the model is built and come out
    as soon as the run reaches its halt, so the output checks that follow
    record nothing.
    """

    def __init__(self, workload, inputs, run_id: str) -> None:
        self.recorder = SpanRecorder()
        self.tracer = Tracer(self.recorder)
        self._installed = False
        self.recorder.begin_run(run_id)
        self.tracer.install()
        self._installed = True
        try:
            self.run = Run(workload, inputs, hooks=self)
        finally:
            self.finished()

    # -- Run hooks ---------------------------------------------------------
    def built(self, model) -> None:
        self.model = model
        self.tracer.wrap_processes(model.sim)

    def finished(self) -> None:
        if self._installed:
            self._installed = False
            self.tracer.remove()
            self.recorder.end_run()

    # -- metrics -----------------------------------------------------------
    def span_totals(self) -> dict:
        """``span name -> [calls, self ns]``."""
        recorder = self.recorder
        totals = defaultdict(lambda: [0, 0])
        for nid, self_ns in zip(recorder.name_of, recorder.self_times()):
            entry = totals[recorder.names[nid]]
            entry[0] += 1
            entry[1] += self_ns
        return totals

    def counters(self) -> dict:
        """Work counters of the traced run, per simulated kilocycle."""
        model = self.model
        nodes = model.nodes
        kcycles = self.run.stats["cycles"] / 1000
        kernel = model.sim.stats
        cores = [node.statistics for node in nodes]
        retired = sum(core.instructions_retired for core in cores)
        quantum = sum(core.quantum_instructions for core in cores)
        warps = sum(core.quantum_warps for core in cores)
        edges = sum(node.clock.posedge_count + node.clock.negedge_count
                    for node in nodes)
        dispatcher = sum(node.dispatcher.instruction_fetches
                         + node.dispatcher.data_accesses for node in nodes)
        return {
            "kernel.activations_per_kcycle":
                kernel.process_activations / kcycles,
            "kernel.deltas_per_kcycle": kernel.delta_cycles / kcycles,
            "kernel.timed_steps_per_kcycle": kernel.timed_steps / kcycles,
            "kernel.edges_skipped_share": _ratio(kernel.edges_skipped, edges),
            "signals.updates_per_kcycle": kernel.channel_updates / kcycles,
            "signals.events_per_kcycle": kernel.events_notified / kcycles,
            "bus.transfers_per_kcycle": sum(
                node.bus_fabric.transfer_count for node in nodes) / kcycles,
            "iss.instructions": retired,
            "iss.intercepted": sum(core.instructions_intercepted
                                   for core in cores),
            "iss.cpi": _ratio(sum(core.cycles for core in cores), retired),
            "iss.quantum_share": _ratio(quantum, retired),
            "iss.insns_per_warp": _ratio(quantum, warps),
            "iss.decoded_entries": sum(core.decoded_entries
                                       for core in cores),
            "iss.interrupts": sum(core.interrupts_taken for core in cores),
            "peripherals.dispatcher_accesses": dispatcher,
            "peripherals.console_chars": sum(len(node.console_output)
                                             for node in nodes),
            "platform.frames_delivered":
                model.link.frames_delivered if model.link else 0,
        }

    def report(self, untraced_host_s: float) -> dict:
        """Print the boundary and layer tables; return the metrics."""
        totals = self.span_totals()
        layer_calls = defaultdict(int)
        layer_self = defaultdict(int)
        for name, (calls, self_ns) in totals.items():
            layer = name.split(".", 1)[0]
            layer_calls[layer] += calls
            layer_self[layer] += self_ns
        all_self = sum(layer_self.values())

        print("boundary calls (bypassed: zero calls while its layer runs)")
        span_counts = {name: calls for name, (calls, __) in totals.items()}
        for layer, declared, calls, overrides in \
                self.tracer.boundary_calls(span_counts):
            note = " bypassed" if not calls and layer_calls[layer] else ""
            detail = ""
            if len(overrides) > 1:
                detail = "  (" + ", ".join(
                    f"{name.split('.')[1]} {count}"
                    for name, count in overrides.items()) + ")"
            print(f"  {declared:<48} {calls:>10}{note}{detail}")
        print("spans by self time (generator boundaries: one span per resume)")
        for name, (calls, self_ns) in sorted(
                totals.items(), key=lambda item: -item[1][1]):
            print(f"  {name:<52} {calls:>10} {self_ns / 1e9:9.4f} s "
                  f"{_ratio(self_ns, all_self):6.1%}")
        print("layers")
        for layer in sorted(layer_self, key=lambda key: -layer_self[key]):
            print(f"  {layer:<12} {layer_calls[layer]:>10} "
                  f"{layer_self[layer] / 1e9:9.4f} s "
                  f"{_ratio(layer_self[layer], all_self):6.1%}")

        values = {}
        for layer in SPANNED_LAYERS:
            values[f"{layer}.self_s"] = layer_self[layer] / 1e9
            values[f"{layer}.share"] = _ratio(layer_self[layer], all_self)
            values[f"{layer}.calls"] = layer_calls[layer]
        values.update(self.counters())
        recorder = self.recorder
        values["platform.build_s"] = recorder.outermost_time(_BUILD_SPANS) / 1e9
        values["platform.load_s"] = recorder.outermost_time(_LOAD_SPANS) / 1e9
        values["software.assemble_s"] = \
            recorder.outermost_time(_ASSEMBLE_SPANS) / 1e9
        values["trace.overhead_ratio"] = \
            (self.run.setup_s + self.run.run_s) / untraced_host_s
        return {name: metric(values[name], unit)
                for name, unit, __ in PER_LAYER_METRICS}

"""Self-tests of the benchmark: inputs, checks, span arithmetic, tracer.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import inspect
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import measure  # noqa: E402
import tracer  # noqa: E402
from repro import software  # noqa: E402
from repro.software import BootParams  # noqa: E402
from workloads import WORKLOADS, boot_inputs, ping_inputs  # noqa: E402


def tiny(name: str):
    """The named workload with inputs small enough for a smoke run."""
    workload = copy.copy(WORKLOADS[name])
    if hasattr(workload, "scale"):
        workload.scale = 0.1
    else:
        workload.count = 2
    return workload


# ---------------------------------------------------------------- inputs --
def test_boot_inputs_are_deterministic_and_seeded():
    assert boot_inputs(7, 1.0) == boot_inputs(7, 1.0)
    assert boot_inputs(7, 1.0) != boot_inputs(8, 1.0)
    for scale in (1.0, 30.0):
        base = BootParams().scaled(scale)
        for seed in range(20):
            params = boot_inputs(seed, scale).params
            for field in dataclasses.fields(BootParams):
                value = getattr(params, field.name)
                if field.name != "banner":
                    reference = getattr(base, field.name)
                    assert 0.9 * reference <= value <= 1.1 * reference, \
                        (seed, field.name)
            assert 4 * params.checksum_words <= params.kernel_copy_bytes


def test_ping_inputs_are_deterministic_and_seeded():
    assert ping_inputs(3, 5) == ping_inputs(3, 5)
    assert ping_inputs(3, 5).payload != ping_inputs(4, 5).payload
    for seed in range(20):
        assert 48 <= len(ping_inputs(seed, 5).payload) <= 80


# ------------------------------------------------------------ smoke runs --
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_passes_a_tiny_smoke_run(name):
    workload = tiny(name)
    run = measure.Run(workload, workload.inputs(1))
    assert run.failures == []
    assert run.stats["cycles"] > 0 and run.sim_khz > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_reports_every_metric(name):
    workload = tiny(name)
    inputs = workload.inputs(2)
    untraced = measure.Run(workload, inputs)
    traced = layers.TracedRun(workload, inputs, "smoke")
    assert traced.run.failures == []
    assert traced.run.stats == untraced.stats
    metrics = traced.report(untraced.setup_s + untraced.run_s)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {entry["name"] for entry in spec["per_layer"]}
    assert set(measure.end_to_end(untraced, [untraced])) \
        == {entry["name"] for entry in spec["end_to_end"]}
    assert metrics["kernel.calls"]["value"] > 0
    assert metrics["iss.calls"]["value"] > 0


# ------------------------------------------------------------- failures --
def test_a_wrong_expected_value_fails_the_run():
    workload = tiny("boot_capture")
    inputs = workload.inputs(1)
    model = workload.setup(inputs)
    halted = workload.run(model)
    assert workload.check(model, inputs, halted) == []
    image = bytearray(inputs.kernel_image)
    image[0] ^= 0xFF
    wrong = dataclasses.replace(inputs, kernel_image=bytes(image))
    failures = workload.check(model, wrong, halted)
    assert any("kernel copy" in failure for failure in failures)
    assert any("checksum" in failure for failure in failures)


def test_a_wrong_ping_payload_fails_the_run():
    workload = tiny("cluster_ping")
    inputs = workload.inputs(1)
    model = workload.setup(inputs)
    halted = workload.run(model)
    assert workload.check(model, inputs, halted) == []
    wrong = dataclasses.replace(inputs,
                                payload=(inputs.payload[0] + 1,)
                                + inputs.payload[1:])
    assert any("ping result" in failure
               for failure in workload.check(model, wrong, halted))


class _Broken:
    """A workload whose model builds and runs but whose check raises."""

    name = "broken"

    def inputs(self, seed):
        return argparse.Namespace(describe=dict)

    def setup(self, inputs):
        return None

    def run(self, model):
        return True

    def check(self, model, inputs, halted):
        raise RuntimeError("broken")


def test_a_run_that_raises_is_a_failed_operation():
    class BrokenSetup(_Broken):
        def setup(self, inputs):
            raise RuntimeError("broken")

    for workload in (BrokenSetup(), _Broken()):
        run = measure.Run(workload, None)
        assert run.failures == ["RuntimeError: broken"]
        assert run.run_s is None and run.stats is None


def test_runs_that_raise_still_print_the_result_line(monkeypatch, capsys):
    monkeypatch.setattr(measure, "WORKLOADS", {"broken": _Broken()})
    args = argparse.Namespace(workload="broken", seed=1, seconds=0, trace=0)
    assert measure.main(args) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    runs = measure.WARMUP_RUNS + measure.MIN_TIMED_RUNS
    assert result == {"correct": False, "attempted": runs, "failed": runs,
                      "metrics": {}}


def test_divergent_statistics_fail_the_run():
    workload = tiny("cluster_ping")
    run = measure.Run(workload, workload.inputs(1))
    measure.mark_divergent([run], dict(run.stats, cycles=1))
    assert run.failures


# ------------------------------------------------------------ self time --
def test_self_time_arithmetic_on_a_hand_built_tree():
    recorder = tracer.SpanRecorder()
    root = recorder.add("kernel.run", -1, 0, 100)
    fetch = recorder.add("bus.read", root, 10, 40)
    body = recorder.add("iss.body", root, 50, 90)
    recorder.add("bus.read", body, 60, 70)
    recorder.add("peripherals.read", fetch, 20, 25)
    assert recorder.self_times() == [30, 25, 30, 10, 5]
    assert recorder.outermost_time(["bus.read"]) == 40
    assert recorder.outermost_time(["iss.body", "bus.read"]) == 70
    assert recorder.outermost_time(["missing"]) == 0


def test_span_dump_round_trips(tmp_path):
    recorder = tracer.SpanRecorder()
    recorder.begin_run("r")
    recorder.add("kernel.run", -1, 0, 100)
    recorder.end_run()
    path = tmp_path / "spans.bin"
    recorder.dump(path)
    header, __ = path.read_bytes().split(b"\n", 1)
    assert json.loads(header)["runs"] == [{"run_id": "r", "first": 0,
                                           "end": 1}]


# --------------------------------------------------------------- tracer --
def _patched_attributes() -> dict:
    found = {}
    for __, base, methods in tracer.CLASS_BOUNDARIES:
        for cls in tracer._with_subclasses(base):
            for method in methods:
                found[(cls, method)] = cls.__dict__.get(method)
    for __, functions in tracer.FUNCTION_BOUNDARIES:
        for function in functions:
            original = getattr(software, function)
            for module in (software, inspect.getmodule(original)):
                found[(module, function)] = getattr(module, function)
    return found


def test_tracer_removal_restores_classes_and_process_bodies():
    before = _patched_attributes()
    workload = tiny("boot_cycle")
    recorder = tracer.SpanRecorder()
    spans = tracer.Tracer(recorder)
    spans.install()
    try:
        assert _patched_attributes() != before
        model = workload.setup(workload.inputs(1))
        bodies = {process: process.func for process in model.sim.processes}
        spans.wrap_processes(model.sim)
        model.top.run_cycles(50)
    finally:
        spans.remove()
    assert _patched_attributes() == before
    for process, func in bodies.items():
        assert process.func is func
        generator = getattr(process, "_generator", None)
        if generator is not None:
            assert generator.gi_code is not tracer._timed_resumes.__code__
    assert len(recorder) > 0

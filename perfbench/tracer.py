"""Outside-in span tracing of the model's layers.

The benchmark's traced run records one span per call into a layer's public
boundary -- a class-level wrapper installed by :class:`Tracer` before the
model is built -- and one span per activation of every simulation process
body, wrapped after the build and before the first ``run``.  No source file
of the model changes, and :meth:`Tracer.remove` puts every patched
attribute back.

A span has a name (``<layer>.<Class>.<function>``), a start, an end and a
parent span; spans of one workload run share a run id.  They are kept in
compact arrays in memory and written out by :meth:`SpanRecorder.dump` when
the benchmark ends.  A span's *self time* is its duration minus the time
its child spans cover.

Signals are deliberately not spanned: a span around every per-delta signal
read would cost more host time than the read itself, so that time stays in
the calling layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from dataclasses import dataclass

from repro import software
from repro.bus import BusTransport, OpbMasterPort, OpbSlave
from repro.iss import KernelFunctionInterceptor, MicroBlazeCore
from repro.kernel import SimulationEngine
from repro.peripherals import EthernetMacProxy, MemoryDispatcher, MemoryMap
from repro.platform import NetworkSwitch, VanillaNetCluster, VanillaNetPlatform

#: The public boundaries wrapped per layer: ``(layer, class, methods)``.
#: Subclasses that override a method get their own wrapper, so a fabric's
#: or slave's specialised entry point is counted under its own name.
CLASS_BOUNDARIES = (
    ("kernel", SimulationEngine, ("run",)),
    ("bus", BusTransport, ("read", "write", "direct_read", "direct_write")),
    ("bus", OpbMasterPort, ("transfer",)),
    ("iss", MicroBlazeCore, ("step", "execute_decoded")),
    ("iss", KernelFunctionInterceptor, ("maybe_intercept",)),
    ("peripherals", OpbSlave, ("target_read", "target_write",
                               "handle_access")),
    ("peripherals", MemoryDispatcher, ("fetch", "read", "write")),
    ("peripherals", MemoryMap, ("read", "write")),
    ("peripherals", EthernetMacProxy, ("deliver_frame",)),
    ("platform", VanillaNetPlatform, ("__init__", "load_program")),
    ("platform", VanillaNetCluster, ("__init__", "load_programs")),
    ("platform", NetworkSwitch, ("transmit", "earliest_delivery_ps")),
)

#: Module-level workload generators, wrapped wherever they are bound.
FUNCTION_BOUNDARIES = (
    ("software", ("build_boot_program", "ping_echo_programs")),
)


def layer_of_module(module: str | None) -> str:
    """``repro.<layer>.<module>`` -> ``<layer>``; anything else -> other."""
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return "other"


class SpanRecorder:
    """In-memory span store: four parallel arrays plus a name table."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        #: ``(run_id, first_span, end_span)`` per recorded workload run.
        self.runs: list[tuple[str, int, int]] = []
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_run(self, run_id: str) -> None:
        self.runs.append((run_id, len(self.start), -1))

    def end_run(self) -> None:
        run_id, first, __ = self.runs[-1]
        self.runs[-1] = (run_id, first, len(self.start))

    def add(self, name: str, parent: int, start: int, end: int) -> int:
        """Append a finished span (used to build span trees by hand)."""
        index = len(self.start)
        self.name_of.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return index

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[int]:
        """Per-span duration minus the time its child spans cover (ns)."""
        parent, start, end = self.parent, self.start, self.end
        covered = [0] * len(start)
        for index in range(len(start)):
            up = parent[index]
            if up >= 0:
                covered[up] += end[index] - start[index]
        return [end[index] - start[index] - covered[index]
                for index in range(len(start))]

    def outermost_time(self, names) -> int:
        """Total duration of the spans named in ``names`` that have no
        ancestor in that set (so nested calls are not counted twice)."""
        ids = {self._name_ids[name] for name in names
               if name in self._name_ids}
        total = 0
        for index in range(len(self.start)):
            if self.name_of[index] not in ids:
                continue
            up = self.parent[index]
            while up >= 0 and self.name_of[up] not in ids:
                up = self.parent[up]
            if up < 0:
                total += self.end[index] - self.start[index]
        return total

    def dump(self, path) -> None:
        """Write the spans: one JSON header line, then the raw arrays
        (name id int32, parent int32, start int64 ns, end int64 ns)."""
        header = {"format": "perfbench-spans/1", "spans": len(self),
                  "names": self.names,
                  "runs": [{"run_id": run_id, "first": first, "end": end}
                           for run_id, first, end in self.runs],
                  "arrays": ["name_of:i", "parent:i", "start:q", "end:q"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_of, self.parent, self.start, self.end):
                column.tofile(handle)


def _call_wrapper(recorder: SpanRecorder, name: str, func):
    """Time every call of ``func`` as one span."""
    nid = recorder.name_id(name)
    name_append = recorder.name_of.append
    parent_append = recorder.parent.append
    start_append = recorder.start.append
    end_append = recorder.end.append
    ends = recorder.end
    stack = recorder.stack
    clock = time.perf_counter_ns

    @functools.wraps(func)
    def traced(*args, **kwargs):
        index = len(ends)
        name_append(nid)
        parent_append(stack[-1])
        end_append(0)
        stack.append(index)
        start_append(clock())
        try:
            return func(*args, **kwargs)
        finally:
            ends[index] = clock()
            stack.pop()
    return traced


def _timed_resumes(recorder: SpanRecorder, nid: int, generator):
    """A generator that forwards ``generator`` and times each resume.

    The span bookkeeping repeats :func:`_call_wrapper`'s inline: a helper
    call per span would add to the overhead the trace is meant to keep low.
    """
    name_append = recorder.name_of.append
    parent_append = recorder.parent.append
    start_append = recorder.start.append
    end_append = recorder.end.append
    ends = recorder.end
    stack = recorder.stack
    clock = time.perf_counter_ns
    send = generator.send
    value = None
    while True:
        index = len(ends)
        name_append(nid)
        parent_append(stack[-1])
        end_append(0)
        stack.append(index)
        start_append(clock())
        try:
            spec = send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            ends[index] = clock()
            stack.pop()
        value = yield spec


def _generator_wrapper(recorder: SpanRecorder, name: str, func, calls: list,
                       inner: dict | None = None):
    """Wrap a generator function so each resume of its result is a span.

    ``calls[0]`` counts the calls themselves; ``inner``, when given, maps
    each timing generator to the generator it forwards.
    """
    nid = recorder.name_id(name)

    @functools.wraps(func)
    def traced(*args, **kwargs):
        calls[0] += 1
        generator = func(*args, **kwargs)
        timed = _timed_resumes(recorder, nid, generator)
        if inner is not None:
            inner[timed] = generator
        return timed
    return traced


@dataclass
class Boundary:
    """One wrapped entry point and where its original lives.

    ``declared`` names the boundary as listed (``bus.BusTransport.read``);
    ``name`` is the span name of this particular override.  ``calls`` is
    set for generator functions, whose spans count resumes, not calls.
    """

    layer: str
    declared: str
    name: str
    owner: object
    attribute: str
    original: object
    calls: list | None = None


def _model_body(func):
    """The model function a process body runs.

    ``Module.sc_process`` registers a plain function as a thread by
    wrapping it in a kernel-defined ``while True: func(); yield`` loop;
    that body's time belongs to the wrapped function's layer.
    """
    if getattr(func, "__closure__", None) and \
            func.__qualname__.endswith("<locals>._looping_thread"):
        inner = inspect.getclosurevars(func).nonlocals.get("func")
        if callable(inner):
            return inner
    return func


def _with_subclasses(cls) -> list:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        if current not in found:
            found.append(current)
            pending.extend(current.__subclasses__())
    return found


class Tracer:
    """Installs and removes the span wrappers around the model's layers."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.boundaries: list[Boundary] = []
        self.bodies: list[tuple] = []
        #: Timing generator -> the thread-body generator it forwards.
        self._inner: dict = {}

    def _wrap(self, layer: str, declared: str, name: str, owner,
              attribute: str, original):
        calls = None
        if inspect.isgeneratorfunction(original):
            calls = [0]
            traced = _generator_wrapper(self.recorder, name, original, calls)
        else:
            traced = _call_wrapper(self.recorder, name, original)
        self.boundaries.append(Boundary(layer, declared, name, owner,
                                        attribute, original, calls))
        return traced

    # -- class-level and module-level boundaries --------------------------
    def install(self) -> None:
        """Wrap every boundary; call before the model is built."""
        for layer, base, methods in CLASS_BOUNDARIES:
            for method in methods:
                declared = f"{layer}.{base.__name__}.{method}"
                for cls in _with_subclasses(base):
                    original = cls.__dict__.get(method)
                    if inspect.isfunction(original):
                        setattr(cls, method, self._wrap(
                            layer, declared, f"{layer}.{cls.__name__}.{method}",
                            cls, method, original))
        for layer, functions in FUNCTION_BOUNDARIES:
            for function in functions:
                original = getattr(software, function)
                name = f"{layer}.{function}"
                traced = self._wrap(layer, name, name, software, function,
                                    original)
                home = inspect.getmodule(original)
                setattr(software, function, traced)
                setattr(home, function, traced)
                self.boundaries.append(Boundary(layer, name, name, home,
                                                function, original))

    # -- process bodies ----------------------------------------------------
    def wrap_processes(self, sim) -> None:
        """Wrap every process body of ``sim``; call after the build and
        before the first run.  A body's time goes to the layer of the
        module that defines it; a thread body is timed on each resume."""
        for process in sim.processes:
            func = process.func
            body = _model_body(func)
            layer = layer_of_module(getattr(body, "__module__", None))
            name = f"{layer}.{getattr(body, '__qualname__', repr(body))}"
            self.bodies.append((process, func))
            if inspect.isgeneratorfunction(func):
                process.func = _generator_wrapper(self.recorder, name, func,
                                                  [0], self._inner)
            else:
                process.func = _call_wrapper(self.recorder, name, func)

    # -- removal -----------------------------------------------------------
    def remove(self) -> None:
        """Put back every patched attribute and process body.

        The boundary list stays for :meth:`boundary_calls`."""
        for process, func in reversed(self.bodies):
            process.func = func
            generator = getattr(process, "_generator", None)
            if generator in self._inner:
                # A started thread resumes its own generator from here on;
                # the timing generator only ever forwarded it.
                process._generator = self._inner[generator]
        for boundary in reversed(self.boundaries):
            setattr(boundary.owner, boundary.attribute, boundary.original)
        self.bodies.clear()
        self._inner.clear()

    def boundary_calls(self, span_counts: dict) -> list[tuple]:
        """``(layer, declared name, calls, {override: calls})`` per listed
        boundary, from the span counts of the traced run."""
        table: dict = {}
        for boundary in self.boundaries:
            entry = table.setdefault(boundary.declared,
                                     (boundary.layer, {}))
            if boundary.calls is not None:
                calls = boundary.calls[0]
            else:
                calls = span_counts.get(boundary.name, 0)
            entry[1][boundary.name] = calls
        return [(layer, declared, sum(overrides.values()), overrides)
                for declared, (layer, overrides) in table.items()]

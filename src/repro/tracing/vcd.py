"""Value Change Dump (VCD) waveform tracing.

The paper's "initial model with trace" bar (Figure 2, 32.6 kHz versus
61 kHz untraced) shows that waveform tracing roughly halves simulation
speed.  The cost has two parts, both reproduced here:

* every traced signal gets a tracing callback scheduled on each value
  change (extra kernel work), and
* each change is formatted and written to the VCD stream (extra host work).

:class:`VcdWriter` knows the file format; :class:`Tracer` connects writer
and signals by registering one lightweight method process per traced
signal, which is how ``sc_trace`` behaves from the scheduler's point of
view.
"""

from __future__ import annotations

import io
from typing import Optional, TextIO

from ..datatypes import LogicVector
from ..kernel.component import SCOPE_BUS_LEVEL, SimComponent
from ..kernel.engine import SimulationEngine
from ..kernel.errors import ModelError


class VcdWriter:
    """Serialises value changes into the VCD file format."""

    #: Characters usable as VCD identifier codes.
    _ID_ALPHABET = "".join(chr(c) for c in range(33, 127))

    def __init__(self, stream: Optional[TextIO] = None,
                 timescale: str = "1ps",
                 design_name: str = "repro") -> None:
        self.stream = stream if stream is not None else io.StringIO()
        self.timescale = timescale
        self.design_name = design_name
        self._variables: list[tuple[str, str, int]] = []
        self._header_written = False
        self._last_time: Optional[int] = None
        #: Number of value changes written (used by tests and benchmarks).
        self.change_count = 0

    # -- declaration ------------------------------------------------------------
    def declare(self, name: str, width: int) -> str:
        """Declare a variable and return its VCD identifier code."""
        if self._header_written:
            raise RuntimeError("cannot declare variables after tracing "
                               "has started")
        code = self._make_code(len(self._variables))
        self._variables.append((name, code, width))
        return code

    def _make_code(self, index: int) -> str:
        alphabet = self._ID_ALPHABET
        base = len(alphabet)
        code = alphabet[index % base]
        index //= base
        while index:
            code = alphabet[index % base] + code
            index //= base
        return code

    def write_header(self) -> None:
        """Emit the VCD header and variable declarations."""
        if self._header_written:
            return
        out = self.stream
        out.write(f"$date reproduction run $end\n")
        out.write(f"$version repro SystemC-style tracer $end\n")
        out.write(f"$timescale {self.timescale} $end\n")
        out.write(f"$scope module {self.design_name} $end\n")
        for name, code, width in self._variables:
            safe = name.replace(" ", "_")
            out.write(f"$var wire {width} {code} {safe} $end\n")
        out.write("$upscope $end\n")
        out.write("$enddefinitions $end\n")
        self._header_written = True

    # -- value changes -------------------------------------------------------------
    def record(self, time_ps: int, code: str, value, width: int) -> None:
        """Record one value change at ``time_ps``."""
        if not self._header_written:
            self.write_header()
        if self._last_time != time_ps:
            self.stream.write(f"#{time_ps}\n")
            self._last_time = time_ps
        self.stream.write(self._format_value(value, width, code))
        self.change_count += 1

    @staticmethod
    def _format_value(value, width: int, code: str) -> str:
        if isinstance(value, LogicVector):
            bits = value.to_string().lower()
            if width == 1:
                return f"{bits}{code}\n"
            return f"b{bits} {code}\n"
        if isinstance(value, bool):
            return f"{int(value)}{code}\n"
        if isinstance(value, int):
            if width == 1:
                return f"{value & 1}{code}\n"
            return f"b{format(value & ((1 << width) - 1), 'b')} {code}\n"
        # Fallback: stringify (keeps the tracer usable for odd value types).
        return f"s{value} {code}\n"

    def getvalue(self) -> str:
        """The accumulated VCD text (only for in-memory streams)."""
        if isinstance(self.stream, io.StringIO):
            return self.stream.getvalue()
        raise TypeError("getvalue() requires an in-memory stream")


class Tracer(SimComponent):
    """Connects signals to a :class:`VcdWriter`.

    Two operating modes, matching how ``sc_trace`` actually behaves:

    * **polled** (default when ``poll_event`` is given): a single tracing
      process wakes on every ``poll_event`` notification (the platform uses
      both clock edges) and scans *every* traced signal, comparing against
      the previously recorded value.  This is what the SystemC trace file
      implementation does at each time step, and it is why the paper's
      traced model runs at roughly half the speed of the untraced one.
    * **event-driven** (no ``poll_event``): each traced signal gets a small
      method process sensitive to its value-change event.  Cheaper, and
      useful for unit tests that want exact change streams.
    """

    #: VCD text is only meaningful between identically traced platforms on
    #: the same bus level; cross-level restores start a fresh trace.
    state_scope = SCOPE_BUS_LEVEL

    def __init__(self, sim: SimulationEngine,
                 writer: Optional[VcdWriter] = None,
                 poll_event=None) -> None:
        self.sim = sim
        self.writer = writer if writer is not None else VcdWriter()
        self._traced: list[dict] = []
        self._poll_process = None
        if poll_event is not None:
            self._poll_process = sim.spawn_method(
                name="tracer.poll", func=self._poll,
                sensitive=[poll_event], dont_initialize=True)
        #: Number of full scans performed in polled mode.
        self.poll_count = 0

    def trace(self, signal, name: Optional[str] = None,
              width: Optional[int] = None) -> None:
        """Start tracing ``signal`` under ``name``.

        ``width`` defaults to the signal's own width attribute or 32 for
        native-valued signals.
        """
        trace_name = name or getattr(signal, "name", f"sig{len(self._traced)}")
        trace_width = width or getattr(signal, "width", 32)
        code = self.writer.declare(trace_name, trace_width)
        entry = {"signal": signal, "name": trace_name, "width": trace_width,
                 "code": code, "last": None}
        self._traced.append(entry)
        if self._poll_process is not None:
            return

        def _on_change(entry=entry) -> None:
            self._record(entry, self._sample(entry["signal"]))

        self.sim.spawn_method(
            name=f"tracer.{trace_name}",
            func=_on_change,
            sensitive=[signal.default_event()],
            dont_initialize=True,
        )

    # -- sampling ------------------------------------------------------------
    @staticmethod
    def _sample(signal):
        value = getattr(signal, "value", None)
        if value is None:
            value = signal.read()
        return value

    def _record(self, entry: dict, value) -> None:
        entry["last"] = value
        self.writer.record(self.sim.time_ps, entry["code"], value,
                           entry["width"])

    def _poll(self) -> None:
        """Scan every traced signal and record the ones that changed."""
        self.poll_count += 1
        for entry in self._traced:
            value = self._sample(entry["signal"])
            if value != entry["last"]:
                self._record(entry, value)

    # -- checkpoint / restore -------------------------------------------------
    def capture_state(self) -> dict:
        """Plain-data snapshot of the accumulated VCD text and scan state."""
        writer = self.writer
        return {
            "text": writer.getvalue(),
            "header_written": writer._header_written,
            "last_time": writer._last_time,
            "change_count": writer.change_count,
            "poll_count": self.poll_count,
            "last_values": [entry["last"] for entry in self._traced],
        }

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`capture_state` output into a fresh tracer.

        Requires the restoring platform to trace the same signal set, in
        the same order, as the captured one.
        """
        writer = self.writer
        stream = io.StringIO()
        stream.write(state["text"])
        writer.stream = stream
        writer._header_written = state["header_written"]
        writer._last_time = state["last_time"]
        writer.change_count = state["change_count"]
        self.poll_count = state["poll_count"]
        if len(state["last_values"]) != len(self._traced):
            raise ModelError(
                "snapshot tracer state does not match the platform's traced "
                f"signal set ({len(state['last_values'])} captured, "
                f"{len(self._traced)} traced)")
        for entry, last in zip(self._traced, state["last_values"]):
            entry["last"] = last

    @property
    def traced_count(self) -> int:
        """Number of signals being traced."""
        return len(self._traced)

    @property
    def change_count(self) -> int:
        """Number of changes recorded so far."""
        return self.writer.change_count

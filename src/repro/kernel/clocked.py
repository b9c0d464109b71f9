"""The clocked fast-path engine.

:class:`ClockedEngine` implements
:class:`~repro.kernel.engine.SimulationEngine` for the common case this
repository actually simulates: a *single-clock synchronous* platform.  The
paper's Figure 2 optimisations all reduce kernel work per simulated cycle;
this engine removes the kernel work that remains even after those
optimisations, without touching the models:

* **No timed priority queue for clock edges.**  A free-running
  :class:`~repro.signals.clock.Clock` offers itself to the engine at
  construction (:meth:`adopt_clock`); the engine then produces its edges
  arithmetically -- next edge time is an addition, not a heap push/pop
  pair, and the clock's self-scheduling callback never runs.

* **Bucketed event wheel for everything else.**  The remaining timed
  notifications (UART multicycle sleeps, gated-slave re-arms, method
  ``next_trigger`` timeouts) overwhelmingly land on clock-period
  multiples.  They are stored in per-timestamp buckets (a dict) with a
  small heap of *distinct* timestamps, so n same-cycle notifications cost
  one heap operation instead of n.  Cancellation is lazy: a bucket entry
  whose event no longer has a matching pending notification is skipped
  when its time matures.

* **Precomputed static activation schedules.**  For each adopted clock
  edge the engine caches the statically sensitive processes, partitioned
  by process kind (invalidated by the event's ``_static_version``).  The
  edge events still go through the delta queue -- preserving the generic
  engine's phase ordering between coincident timed wakeups and
  edge-sensitive processes -- but their dispatch runs off the cached
  schedule: processes in the common state (a method with no
  ``next_trigger`` override, a thread suspended on its static
  sensitivity) are queued runnable inline, skipping ``trigger_processes``
  -> ``trigger_static`` -> ``_make_runnable``; anything else falls back
  to the exact generic path.

* **No queueing of unobserved notifications.**  A delta notification
  raised by a channel update for an event with no sensitive and no
  waiting processes is dropped at the source instead of being queued and
  dispatched to nobody -- in native data mode most bus-signal
  value-changed events are in this category every single cycle.  (Only
  update-phase notifications qualify: no model code runs between the
  update phase and the delta dispatch, so no subscriber can appear in
  between.)  An unobserved falling clock edge does not even end the time
  step.

The architectural results -- executed instructions, boot console output,
register state -- are identical to the generic engine's by construction:
the evaluation/update/delta semantics are inherited unchanged, edge
notifications keep their delta-phase timing, and only the plumbing that
feeds the runnable queue is specialised.  (Activation *order* within one
evaluation phase may differ between engines, exactly as it may between
two standards-conforming SystemC kernels; each engine on its own is fully
deterministic.)
"""

from __future__ import annotations

import heapq
from typing import Optional

from .engine import ENGINE_CLOCKED, SimulationEngine
from .errors import KernelError
from .events import Event
from .process import MethodProcess, ThreadProcess
from .simtime import _as_ps


class _AdoptedClock:
    """Engine-side record of a clock whose edges the engine generates."""

    __slots__ = ("clock", "next_edge_ps")

    def __init__(self, clock, next_edge_ps: int) -> None:
        self.clock = clock
        self.next_edge_ps: Optional[int] = next_edge_ps


class ClockedEngine(SimulationEngine):
    """Fast-path engine for single-clock synchronous models."""

    kind = ENGINE_CLOCKED

    def __init__(self, name: str = "sim") -> None:
        super().__init__(name)
        #: time_ps -> list of due items (Event or bare callable).
        self._buckets: dict[int, list] = {}
        #: Min-heap of the distinct timestamps present in ``_buckets``.
        self._bucket_heap: list[int] = []
        self._adopted: list[_AdoptedClock] = []
        #: Edge event -> (static_version, methods, threads, others); the
        #: precomputed activation schedules, consulted at dispatch time.
        self._edge_plans: dict[Event, tuple] = {}
        # True only while channel updates are being committed; see
        # _queue_delta_notification.
        self._in_update_phase = False

    # ------------------------------------------------------------------ #
    # clock adoption
    # ------------------------------------------------------------------ #
    def adopt_clock(self, clock, first_delay_ps: int) -> bool:
        """Take over edge generation for a free-running clock."""
        self._adopted.append(
            _AdoptedClock(clock, self.time_ps + first_delay_ps))
        # Register the edge events for schedule-based dispatch; the stale
        # version forces a plan build on first use.
        stale = -1
        for event in (clock._posedge_event, clock._negedge_event):
            self._edge_plans[event] = (stale, (), (), ())
        return True

    # ------------------------------------------------------------------ #
    # timed notifications: the bucketed wheel
    # ------------------------------------------------------------------ #
    def _enqueue(self, time_ps: int, item) -> None:
        bucket = self._buckets.get(time_ps)
        if bucket is None:
            self._buckets[time_ps] = [item]
            heapq.heappush(self._bucket_heap, time_ps)
        else:
            bucket.append(item)

    def _queue_timed_notification(self, time_ps: int, event: Event) -> None:
        self._enqueue(time_ps, event)

    def schedule_action(self, delay, action) -> None:
        """Schedule a bare callable to run at ``now + delay``."""
        self._enqueue(self.time_ps + _as_ps(delay), action)

    def _cancel_timed_notification(self, event: Event) -> None:
        # Lazy cancellation: the stale bucket entry is detected when its
        # time matures, because the event's pending notification no longer
        # names that timestamp (Event.cancel resets ``_pending_kind``
        # before calling here).
        return

    def _clear_timed_state(self) -> None:
        # Adopted clocks and edge plans survive a restore reset: the clock
        # objects were re-created by fresh elaboration and their arithmetic
        # edge state is re-aimed via restore_clock_edge.
        self._buckets.clear()
        self._bucket_heap.clear()

    def restore_clock_edge(self, clock, next_edge_ps: int) -> None:
        for entry in self._adopted:
            if entry.clock is clock:
                entry.next_edge_ps = next_edge_ps
                return
        raise KernelError(
            f"restore_clock_edge: clock {clock.name!r} was never adopted")

    # ------------------------------------------------------------------ #
    # delta notifications: drop what nobody observes
    # ------------------------------------------------------------------ #
    def _queue_delta_notification(self, event: Event) -> None:
        if event._static_procs or event._dynamic_procs \
                or not self._in_update_phase:
            self._delta_events.append(event)
        else:
            # Nobody is watching and the notification comes from a channel
            # update: no model code runs between the update phase and the
            # delta dispatch, so no process can still subscribe before the
            # notification would be delivered -- it can be dropped.  (A
            # notification raised during the *evaluation* phase must be
            # queued even without subscribers, because a process running
            # later in the same phase may start waiting on the event.)
            # Reset the pending marker notify_delta() just set so later
            # notifications of the event are not swallowed.
            event._pending_kind = None

    def _update_phase(self) -> None:
        # Same commit loop as the base engine, wrapped in the update-phase
        # flag so _queue_delta_notification knows when an unobserved
        # notification is safely droppable.
        queue = self._update_queue
        self._update_queue = []
        self.stats.channel_updates += len(queue)
        self._in_update_phase = True
        try:
            for channel in queue:
                channel._update_requested = False
                channel._update()
        finally:
            self._in_update_phase = False

    # ------------------------------------------------------------------ #
    # time advance
    # ------------------------------------------------------------------ #
    def _advance_time(self, end_time: Optional[int], stats) -> bool:
        buckets = self._buckets
        bucket_heap = self._bucket_heap
        adopted = self._adopted
        while True:
            # Bulk edge skip: while the quantum fast path has every
            # clock-driven process detached, a clock's edge events have no
            # subscribers and every edge before the next *observable*
            # activity -- a bucketed notification (typically the quantum's
            # single timed wait), the run-window end, or an edge of a clock
            # somebody does watch -- would be a silent step.  Produce those
            # edges arithmetically in one batch instead of iterating the
            # loop per half-period.  Only a running process can subscribe,
            # and processes only run at observable activations, so a silent
            # clock cannot gain a subscriber before ``limit``; silent
            # clocks cannot wake anything, so they do not constrain each
            # other (this is what lets every node clock of a warping
            # multi-node cluster skip at once).
            if adopted:
                limit = bucket_heap[0] if bucket_heap else None
                if end_time is not None and (limit is None
                                             or end_time < limit):
                    limit = end_time
                silent = None
                for entry in adopted:
                    clock = entry.clock
                    t = entry.next_edge_ps
                    if t is None or not clock._running:
                        continue
                    if (clock._posedge_event._static_procs
                            or clock._posedge_event._dynamic_procs
                            or clock._negedge_event._static_procs
                            or clock._negedge_event._dynamic_procs
                            or clock._changed_event._static_procs
                            or clock._changed_event._dynamic_procs):
                        if limit is None or t < limit:
                            limit = t
                    elif silent is None:
                        silent = [entry]
                    else:
                        silent.append(entry)
                if silent is not None and limit is not None:
                    for entry in silent:
                        t = entry.next_edge_ps
                        if t >= limit:
                            continue
                        clock = entry.clock
                        value = clock._value
                        high_ps = clock.high_ps
                        low_ps = clock.low_ps
                        period_ps = high_ps + low_ps
                        pos = neg = 0
                        if value and t < limit:
                            value = False
                            neg += 1
                            t += low_ps
                        if not value and t < limit:
                            # Skip whole periods (rising at t, falling at
                            # t+high) whose edges all mature before limit.
                            span = limit - t
                            if span > high_ps:
                                whole = (span - high_ps - 1) // period_ps \
                                    + 1
                                pos += whole
                                neg += whole
                                t += whole * period_ps
                        while t < limit:
                            if value:
                                value = False
                                neg += 1
                                t += low_ps
                            else:
                                value = True
                                pos += 1
                                t += high_ps
                        if pos or neg:
                            clock._value = value
                            clock.posedge_count += pos
                            clock.negedge_count += neg
                            entry.next_edge_ps = t
                            stats.edges_skipped += pos + neg
            next_time = bucket_heap[0] if bucket_heap else None
            for entry in adopted:
                edge_time = entry.next_edge_ps
                if edge_time is not None and (next_time is None
                                              or edge_time < next_time):
                    next_time = edge_time
            if next_time is None:
                self._finished = True
                return False
            if end_time is not None and next_time > end_time:
                self.time_ps = end_time
                return False
            self.time_ps = next_time
            stats.timed_steps += 1
            work = False
            # Bucketed notifications run first; the clock edges below are
            # delta-notified, so their processes run after anything a
            # timed notification wakes directly -- the same phase ordering
            # the generic engine produces.
            if bucket_heap and bucket_heap[0] == next_time:
                heapq.heappop(bucket_heap)
                for item in buckets.pop(next_time):
                    # Lazily-cancelled / superseded notifications are
                    # skipped inside the shared delivery helper.
                    self._deliver_timed_item(item, next_time, stats)
                work = True
            # Decide once how this step's edge events are delivered: with
            # anything runnable or queued, they must take the delta queue
            # (a process running first could still subscribe, and edge
            # processes must start one delta later); on a pure edge step,
            # dispatching immediately is indistinguishable -- nothing can
            # run, subscribe or commit a value before the delta phase
            # would have dispatched them.
            defer = bool(self._runnable or self._delta_events
                         or self._update_queue)
            for entry in adopted:
                if entry.next_edge_ps == next_time:
                    clock = entry.clock
                    if not defer and clock._value and clock._running:
                        # Silent falling edge fast path: nothing coincides
                        # and (in the overwhelmingly common case) nobody
                        # watches the falling side, so the whole
                        # _fire_edge call is skipped.
                        negedge = clock._negedge_event
                        changed = clock._changed_event
                        if not (negedge._static_procs
                                or negedge._dynamic_procs
                                or changed._static_procs
                                or changed._dynamic_procs):
                            clock._value = False
                            clock.negedge_count += 1
                            entry.next_edge_ps = next_time + clock.low_ps
                            continue
                    if self._fire_edge(entry, defer, stats):
                        work = True
            if work or self._runnable or self._update_queue \
                    or self._delta_events:
                return True
            # Silent step (typically an unobserved falling edge): keep
            # advancing without bouncing through the empty delta loop.

    # ------------------------------------------------------------------ #
    # clock edges
    # ------------------------------------------------------------------ #
    def _fire_edge(self, entry: _AdoptedClock, defer: bool, stats) -> bool:
        """Produce one clock edge and deliver its notifications.

        Exactly like the generic engine's ``Clock._edge`` callback, the
        edge events are *delta-notified*: with ``defer`` (coincident
        activity this step) they take the delta queue so their processes
        run one delta after anything a timed notification woke; on a pure
        edge step they dispatch immediately, which is equivalent and skips
        the empty first delta iteration.  Events with no subscribers are
        queued only under ``defer`` (a process running first could still
        subscribe before dispatch); otherwise they are dropped unfired.
        """
        clock = entry.clock
        if not clock._running:
            entry.next_edge_ps = None
            return False
        rising = not clock._value
        clock._value = rising
        if rising:
            clock.posedge_count += 1
            entry.next_edge_ps = self.time_ps + clock.high_ps
            edge_event = clock._posedge_event
        else:
            clock.negedge_count += 1
            entry.next_edge_ps = self.time_ps + clock.low_ps
            edge_event = clock._negedge_event
        work = False
        for event in (clock._changed_event, edge_event):
            if defer:
                # Delivery and the late-subscriber window are handled by
                # the delta dispatch, exactly as in the generic engine.
                self._delta_events.append(event)
                work = True
            elif event._static_procs or event._dynamic_procs:
                work = True
                stats.events_notified += 1
                plan = self._edge_plans.get(event)
                if plan is None:
                    event.trigger_processes()
                else:
                    if plan[0] != event._static_version:
                        plan = self._build_edge_plan(event)
                        self._edge_plans[event] = plan
                    self._execute_edge_plan(event, plan)
        return work

    # ------------------------------------------------------------------ #
    # delta dispatch with precomputed activation schedules
    # ------------------------------------------------------------------ #
    def _delta_notification_phase(self) -> None:
        events = self._delta_events
        self._delta_events = []
        self.stats.events_notified += len(events)
        plans = self._edge_plans
        for event in events:
            plan = plans.get(event)
            if plan is None:
                event.trigger_processes()
                continue
            if plan[0] != event._static_version:
                plan = self._build_edge_plan(event)
                plans[event] = plan
            self._dispatch_edge_plan(event, plan)

    def _dispatch_edge_plan(self, event: Event, plan: tuple) -> None:
        """Trigger an edge event's processes from its cached schedule.

        Equivalent to ``Event.trigger_processes`` with the static list
        pre-partitioned by process kind so the common states are handled
        inline (a method with no ``next_trigger`` override, a thread
        suspended on its static sensitivity); anything else falls back to
        the exact generic path.
        """
        event._pending_kind = None
        __, methods, threads, others = plan
        runnable = self._runnable
        for process in methods:
            # Inlined MethodProcess.trigger_static + _make_runnable for
            # the common no-override case.
            if process._timeout_armed \
                    or process._next_trigger_override is not None:
                process.trigger_static(event)
            elif not (process._runnable_queued or process.terminated):
                process._runnable_queued = True
                runnable.append(process)
        for process in threads:
            # Inlined ThreadProcess.trigger_static + _make_runnable.
            if process._waiting_static and not (
                    process._runnable_queued or process.terminated):
                process._runnable_queued = True
                runnable.append(process)
        for process in others:
            process.trigger_static(event)
        if event._dynamic_procs:
            waiting = event._dynamic_procs
            event._dynamic_procs = []
            for process in waiting:
                process.trigger_dynamic(event)

    def _execute_edge_plan(self, event: Event, plan: tuple) -> None:
        """Run an edge event's schedule directly, without queueing.

        Only used on a pure edge step, where the runnable queue is empty:
        executing the scheduled processes in place is then equivalent to
        queueing them and draining the queue (any process they make
        runnable -- immediate notifications, dynamic wakes -- lands in the
        runnable queue and is executed by the normal evaluation phase
        right after), but saves one queue append + pop per process per
        cycle.  Processes in an unusual state (``next_trigger`` override,
        already queued, not suspended on static sensitivity) take the
        generic trigger path instead.  The inlined execute bodies are kept
        in lock-step with process.py; tests/test_engine.py pins the
        equivalence for every wait-spec kind.
        """
        event._pending_kind = None
        __, methods, threads, others = plan
        stats = self.stats
        trace = self._activation_trace
        activations = 0
        for index, process in enumerate(methods):
            if self._stop_requested:
                # Behave as if the rest had been queued: they were
                # notified, so they must run when the simulation resumes.
                for remaining in methods[index:]:
                    remaining.trigger_static(event)
                break
            if process._timeout_armed \
                    or process._next_trigger_override is not None:
                process.trigger_static(event)
            elif not (process._runnable_queued or process.terminated):
                activations += 1
                if trace is not None:
                    trace.append(process.name)
                if process._waiting_dynamic:
                    process._clear_dynamic_wait()
                process._next_trigger_override = None
                process.activation_count += 1
                self._current_process = process
                try:
                    process.func()
                finally:
                    self._current_process = None
        for index, process in enumerate(threads):
            if self._stop_requested:
                for remaining in threads[index:]:
                    remaining.trigger_static(event)
                break
            if not (process._waiting_static
                    and not process._runnable_queued
                    and not process.terminated):
                process.trigger_static(event)
            elif process._started and process._generator is not None:
                activations += 1
                if trace is not None:
                    trace.append(process.name)
                process._waiting_static = False
                process._waiting_time = False
                if process._waiting_dynamic:
                    process._clear_dynamic_wait()
                process.activation_count += 1
                self._current_process = process
                try:
                    try:
                        spec = next(process._generator)
                    except StopIteration:
                        process.terminated = True
                        process.clear_sensitivity()
                    else:
                        if spec is None:
                            if not process.static_sensitivity:
                                raise KernelError(
                                    f"thread {process.name!r} waited on "
                                    f"static sensitivity but has no "
                                    f"sensitivity list")
                            process._waiting_static = True
                        else:
                            process._arm_wait(spec)
                finally:
                    self._current_process = None
            else:
                # Not yet started (or a plain-function thread): let the
                # full execute() handle the first activation.
                activations += 1
                if trace is not None:
                    trace.append(process.name)
                process.execute()
        stats.process_activations += activations
        # Triggering (as opposed to executing) continues even on stop:
        # in the generic engine the whole notification is delivered
        # atomically at dispatch, and stop only interrupts execution.
        for process in others:
            process.trigger_static(event)
        if event._dynamic_procs:
            waiting = event._dynamic_procs
            event._dynamic_procs = []
            for process in waiting:
                process.trigger_dynamic(event)

    # ------------------------------------------------------------------ #
    # evaluation phase with an inlined method-process fast path
    # ------------------------------------------------------------------ #
    def _evaluation_phase(self) -> None:
        stats = self.stats
        runnable = self._runnable
        popleft = runnable.popleft
        trace = self._activation_trace
        activations = 0
        while runnable:
            process = popleft()
            activations += 1
            if trace is not None:
                trace.append(process.name)
            process_type = type(process)
            if process_type is MethodProcess:
                # Inlined MethodProcess.execute (one call frame fewer per
                # activation, the single hottest dispatch in a synchronous
                # model).  Kept in lock-step with process.py.
                process._runnable_queued = False
                if not process.terminated:
                    if process._waiting_dynamic:
                        process._clear_dynamic_wait()
                    process._next_trigger_override = None
                    process.activation_count += 1
                    self._current_process = process
                    try:
                        process.func()
                    finally:
                        self._current_process = None
            elif process_type is ThreadProcess and process._started \
                    and process._generator is not None:
                # Inlined ThreadProcess.execute + _advance for a running
                # generator, with the dominant wait specification -- plain
                # ``yield None`` (suspend on static sensitivity) -- handled
                # without a further call.  Kept in lock-step with process.py.
                process._runnable_queued = False
                if not process.terminated:
                    process._waiting_static = False
                    process._waiting_time = False
                    if process._waiting_dynamic:
                        process._clear_dynamic_wait()
                    process.activation_count += 1
                    self._current_process = process
                    try:
                        try:
                            spec = next(process._generator)
                        except StopIteration:
                            process.terminated = True
                            process.clear_sensitivity()
                        else:
                            if spec is None:
                                if not process.static_sensitivity:
                                    raise KernelError(
                                        f"thread {process.name!r} waited on "
                                        f"static sensitivity but has no "
                                        f"sensitivity list")
                                process._waiting_static = True
                            else:
                                process._arm_wait(spec)
                    finally:
                        self._current_process = None
            else:
                process.execute()
            if self._stop_requested:
                break
        stats.process_activations += activations

    def _build_edge_plan(self, event: Event) -> tuple:
        methods, threads, others = [], [], []
        for process in event._static_procs:
            process_type = type(process)
            if process_type is MethodProcess:
                methods.append(process)
            elif process_type is ThreadProcess:
                threads.append(process)
            else:
                others.append(process)
        return (event._static_version, tuple(methods), tuple(threads),
                tuple(others))

"""The simulation event loop.

One :class:`Simulator` instance owns the virtual clock and a binary heap of
pending events. Everything else in the library (links, switches, container
runtimes, reconcile loops, clients) schedules plain callbacks or spawns
generator-based processes on this loop.

The loop is intentionally minimal and allocation-light: the heap entry *is*
the :class:`EventHandle` — a list ``[time, seq, callback, args, loop]`` that
``heapq`` orders by its first two items — so ``schedule`` makes one object
per event. Cancellation clears the callback slot rather than re-heapifying
(lazy deletion), which keeps ``cancel`` O(1) and is the standard idiom for
timer wheels with many idle-timeout resets (OpenFlow flow entries reset
their timeout on every matched packet).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.metrics.perf import PERF
from repro.simcore.errors import ScheduleInPastError, SimulatorReentryError
from repro.simcore.trace import TraceLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.process import Process, ProcessName, Timeout


class EventHandle(list[Any]):
    """Handle for a scheduled callback; supports O(1) cancellation.

    The handle is its own heap entry: ``[time, seq, callback, args, loop]``.
    ``(time, seq)`` is unique per loop, so heap comparisons never reach the
    callback. A ``None`` callback slot means the event was cancelled or has
    already fired; both release the callback and its arguments immediately
    instead of pinning them until the entry is popped. The owning loop is
    kept so a cancellation can maintain the loop's O(1) live-event counter.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        time: float = self[0]
        return time

    @property
    def seq(self) -> int:
        seq: int = self[1]
        return seq

    def cancel(self) -> None:
        """Prevent the callback from running. Safe to call more than once,
        and safe to call after the event already fired (then a no-op)."""
        if self[2] is not None:
            self[4]._live -= 1
            self[2] = None
            self[3] = None

    @property
    def alive(self) -> bool:
        return self[2] is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.alive else "done"
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """Deterministic discrete-event loop with a virtual clock.

    Parameters
    ----------
    trace:
        Optional :class:`TraceLog`; when provided, kernel-level events
        (process spawn/finish) are recorded into it and the same
        log is conventionally shared by higher layers.

    Notes
    -----
    Two events scheduled for the same time fire in the order they were
    scheduled (FIFO), enforced by the monotonically increasing sequence
    number used as the heap tiebreaker. This property is load-bearing: e.g.
    a switch that forwards a packet and then updates a counter relies on it.
    """

    def __init__(self, trace: Optional[TraceLog] = None) -> None:
        from repro.simcore.faults import FaultPlane  # local import: cycle

        self._queue: list[EventHandle] = []
        self._seq = 0
        #: current simulated time in seconds; a plain attribute because
        #: every layer reads it per frame — written only by this module
        #: (linter rule REP010)
        self.now = 0.0
        self._running = False
        #: live (scheduled, not yet executed or cancelled) events — kept
        #: exact by schedule/cancel/pop so pending_count() is O(1)
        self._live = 0
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        #: simulation-wide fault-injection plane; pass-through until armed
        #: (bound to seeded streams *and* given at least one fault point)
        self.faults = FaultPlane()
        #: number of events executed so far (diagnostic / benchmark metric)
        self.events_executed = 0

    # ------------------------------------------------------------- scheduling

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` may be zero (runs after all currently-executing work, in
        FIFO order with other zero-delay events). Negative delays raise
        :class:`ScheduleInPastError`.
        """
        if delay < 0:
            raise ScheduleInPastError(f"negative delay {delay!r}")
        self._seq = seq = self._seq + 1
        handle = EventHandle((self.now + delay, seq, callback, args, self))
        heapq.heappush(self._queue, handle)
        self._live += 1
        return handle

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        # Scheduling in the past must raise, so the subtraction is the point.
        return self.schedule(time - self.now, callback, *args)  # repro: noqa[REP006]

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current time (after pending
        same-time events)."""
        return self.schedule(0.0, callback, *args)

    # ------------------------------------------------------------- execution

    def _pop_alive(self) -> Optional[EventHandle]:
        while self._queue:
            handle = heapq.heappop(self._queue)
            if handle[2] is not None:
                self._live -= 1  # about to execute
                return handle
            # lazily dropped: cancelled entry
        return None

    def peek(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        while self._queue:
            head = self._queue[0]
            if head[2] is not None:
                return head.time
            heapq.heappop(self._queue)
        return None

    def step(self) -> bool:
        """Execute exactly one event. Returns ``False`` when none remain."""
        handle = self._pop_alive()
        if handle is None:
            return False
        self.now = handle[0]
        callback, args = handle[2], handle[3]
        # Mark consumed before invoking so re-entrant cancel() is a no-op.
        handle[2] = None
        handle[3] = None
        self.events_executed += 1
        callback(*args)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or the clock passes ``until``.

        Returns the final simulated time. When ``until`` is given the clock
        is advanced to exactly ``until`` even if the last event fired
        earlier, so back-to-back ``run(until=...)`` calls compose.

        The loop is the hot path of every experiment, so it pops and tests
        liveness inline: per event it makes one ``heappop`` and the callback
        and no other call. :meth:`peek` + :meth:`step` execute the same
        events in the same order a method call at a time; the runtime
        sanitizer's audited ``run`` is built on them.
        """
        if self._running:
            raise SimulatorReentryError("Simulator.run() is not re-entrant")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        executed_before = self.events_executed
        try:
            while queue:
                handle = queue[0]
                callback = handle[2]
                if callback is None:
                    heappop(queue)  # lazily dropped: cancelled entry
                    continue
                if until is not None and handle[0] > until:
                    break
                heappop(queue)
                self._live -= 1
                self.now = handle[0]
                args = handle[3]
                # Mark consumed before invoking so re-entrant cancel() is a
                # no-op (same protocol as step()).
                handle[2] = None
                handle[3] = None
                self.events_executed += 1
                callback(*args)
        finally:
            self._running = False
            PERF.events_executed += self.events_executed - executed_before
        if until is not None and self.now < until:
            self.now = until
        return self.now

    # -------------------------------------------------------------- processes

    def spawn(self, generator: Iterator[Any], name: ProcessName = "") -> Process:
        """Start a generator-based process on this loop.

        The generator may ``yield`` any :class:`~repro.simcore.process.Waitable`
        (a :class:`Timeout`, a :class:`Signal` or another :class:`Process`).
        Its ``return`` value
        becomes :attr:`Process.result`.
        """
        from repro.simcore.process import Process  # local import: cycle

        return Process(self, generator, name=name)

    def timeout(self, delay: float) -> "Timeout":
        """Create a waitable that fires ``delay`` seconds from now."""
        from repro.simcore.process import Timeout

        return Timeout(self, delay)

    def signal(self, name: str = "") -> "Signal":
        """Create a fresh, unset :class:`Signal` bound to this loop."""
        from repro.simcore.signal import Signal

        return Signal(self, name=name)

    # ------------------------------------------------------------ diagnostics

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued. O(1): the
        counter is maintained by schedule/cancel/pop instead of walking
        the heap."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} pending={len(self._queue)}>"

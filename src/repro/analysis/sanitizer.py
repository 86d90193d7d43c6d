"""Runtime sanitizer: always-on-in-tests invariant checks.

The static rules catch what is visible in the source; this layer catches
what only shows up while a simulation runs. It is installed by patching the
substrate classes (no hot-path cost when off, zero imports from ``simcore``
at module scope are needed by the patched code itself), and enabled either
programmatically::

    from repro.analysis import sanitized
    with sanitized() as san:
        run_experiment()
        assert san.rng_ledger["workload.arrivals"] > 0

or for a whole test run via ``REPRO_SANITIZE=1`` (see tests/conftest.py).

Checks
------
* **Event-loop order audit** — every event executed by a
  :class:`~repro.simcore.loop.Simulator` must be strictly later in
  ``(time, seq)`` than the previous one (FIFO same-time ordering is
  load-bearing) and never before the current clock. The production
  ``run()`` pops inline, so the sanitizer swaps in a ``run`` of its own that
  drives the loop through ``peek()``/``step()`` and audits each
  ``_pop_alive`` — the method call per event is paid only when sanitizing.
* **Finite delays** — ``schedule()`` rejects NaN/inf delays, which the
  plain heap would silently misplace.
* **FlowMemory referential integrity** — after every mutation, each entry's
  key matches its flow, timestamps are sane, and the per-instance reference
  counts are a recount of the live flows.
* **RNG draw-count ledger** — every draw on a named stream is counted, so a
  determinism diff can name the stream that diverged instead of just
  "the traces differ".
* **Post-resync data-plane verification** — after every completed
  crash-recovery/revival resync round, the static verifier
  (:mod:`repro.verify`, docs/verification.md) re-checks invariants V1–V5
  over the controller's reconciled view. The check fires a short grace
  delay after the barrier so GC FlowMods still in flight on the channel
  can land first, and runs with ``strict_cookies=False`` (a FlowRemoved
  lost to the outage is legitimate until the next resync reclaims it).
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from typing import Any, Callable, Dict, Iterator, Optional, Tuple
import weakref


class SanitizerError(AssertionError):
    """A runtime determinism/integrity invariant was violated."""


#: grace delay between a completed resync barrier and its verification:
#: the GC FlowMods the stats handler emitted are still in flight on the
#: control channel at barrier time (one-way latency ~0.2 ms, but outage
#: replays can stack) — verifying instantly would flag rules the
#: controller already deleted.
VERIFY_GRACE_S = 0.25


_active: Optional["Sanitizer"] = None


def active_sanitizer() -> Optional["Sanitizer"]:
    """The currently installed sanitizer, or None."""
    return _active


class Sanitizer:
    """Installable bundle of runtime invariant checks.

    One instance may be installed at a time; :meth:`install` is idempotent
    per instance and :meth:`uninstall` restores the original methods.
    """

    def __init__(self) -> None:
        self.installed = False
        #: stream name -> number of draws (any Generator method call)
        self.rng_ledger: Dict[str, int] = {}
        #: diagnostic counters per check
        self.checks_run: Dict[str, int] = {
            "event_order": 0, "schedule": 0, "flowmemory": 0, "verify": 0}
        self._originals: Dict[Tuple[type, str], Any] = {}
        #: sim -> (time, seq) of the last executed event
        self._last_event: "weakref.WeakKeyDictionary[Any, Tuple[float, int]]" = (
            weakref.WeakKeyDictionary())
        #: RandomStreams -> {name: proxy} so stream identity stays stable
        self._proxies: "weakref.WeakKeyDictionary[Any, Dict[str, Any]]" = (
            weakref.WeakKeyDictionary())

    # ------------------------------------------------------------- install

    def _patch(self, cls: type, name: str, wrapper: Callable[..., Any]) -> None:
        self._originals[(cls, name)] = getattr(cls, name)
        setattr(cls, name, wrapper)

    def install(self) -> "Sanitizer":
        global _active
        if self.installed:
            return self
        if _active is not None:
            raise SanitizerError("another Sanitizer is already installed")
        from repro.core.controller import TransparentEdgeController
        from repro.core.flowmemory import FlowMemory
        from repro.simcore.loop import Simulator
        from repro.simcore.rng import RandomStreams

        self._install_simulator(Simulator)
        self._install_rng(RandomStreams)
        self._install_flowmemory(FlowMemory)
        self._install_controller(TransparentEdgeController)
        self.installed = True
        _active = self
        return self

    def uninstall(self) -> None:
        global _active
        if not self.installed:
            return
        for (cls, name), original in self._originals.items():
            setattr(cls, name, original)
        self._originals.clear()
        self.installed = False
        if _active is self:
            _active = None

    # ----------------------------------------------------- simulator checks

    def _install_simulator(self, simulator_cls: type) -> None:
        from repro.metrics.perf import PERF
        from repro.simcore.errors import SimulatorReentryError

        sanitizer = self
        orig_schedule = simulator_cls.schedule
        orig_pop = simulator_cls._pop_alive
        orig_run = simulator_cls.run

        def schedule(sim: Any, delay: float, callback: Callable[..., Any],
                     *args: Any) -> Any:
            sanitizer.checks_run["schedule"] += 1
            if not math.isfinite(delay):
                raise SanitizerError(
                    f"schedule() with non-finite delay {delay!r} — the event "
                    f"heap would order it arbitrarily")
            return orig_schedule(sim, delay, callback, *args)

        def _pop_alive(sim: Any) -> Any:
            handle = orig_pop(sim)
            if handle is not None:
                sanitizer.checks_run["event_order"] += 1
                key = (handle.time, handle.seq)
                last = sanitizer._last_event.get(sim)
                if last is not None and key <= last:
                    raise SanitizerError(
                        f"event order audit: popped (t={handle.time!r}, "
                        f"seq={handle.seq}) after (t={last[0]!r}, "
                        f"seq={last[1]}) — FIFO/heap invariant broken")
                if handle.time < sim.now:
                    raise SanitizerError(
                        f"event order audit: event at t={handle.time!r} "
                        f"popped with clock already at t={sim.now!r}")
                sanitizer._last_event[sim] = key
            return handle

        def run(sim: Any, until: Optional[float] = None) -> float:
            if sim._running:
                raise SimulatorReentryError("Simulator.run() is not re-entrant")
            sim._running = True
            executed_before = sim.events_executed
            try:
                while True:
                    when = sim.peek()
                    if when is None or (until is not None and when > until):
                        break
                    sim.step()
            finally:
                sim._running = False
                PERF.events_executed += sim.events_executed - executed_before
            # Nothing due is left, so the real run() executes no event: it
            # only advances the clock to ``until`` (the clock has one writer).
            return orig_run(sim, until)

        self._patch(simulator_cls, "schedule", schedule)
        self._patch(simulator_cls, "_pop_alive", _pop_alive)
        self._patch(simulator_cls, "run", run)

    # ----------------------------------------------------------- RNG ledger

    def _install_rng(self, streams_cls: type) -> None:
        sanitizer = self
        orig_stream = streams_cls.stream

        def stream(streams: Any, name: str) -> Any:
            gen = orig_stream(streams, name)
            cache = sanitizer._proxies.setdefault(streams, {})
            proxy = cache.get(name)
            if proxy is None or proxy._gen is not gen:
                proxy = _LedgerGenerator(gen, name, sanitizer.rng_ledger)
                cache[name] = proxy
            return proxy

        self._patch(streams_cls, "stream", stream)

    def draw_counts(self) -> Dict[str, int]:
        """Snapshot of the per-stream draw ledger (sorted by stream name)."""
        return {name: self.rng_ledger[name] for name in sorted(self.rng_ledger)}

    # ----------------------------------------------------- FlowMemory checks

    def _install_flowmemory(self, memory_cls: type) -> None:
        sanitizer = self

        def checked(method_name: str) -> Callable[..., Any]:
            original = getattr(memory_cls, method_name)

            def wrapper(memory: Any, *args: Any, **kwargs: Any) -> Any:
                result = original(memory, *args, **kwargs)
                sanitizer._check_flowmemory(memory, method_name)
                return result

            return wrapper

        for name in ("remember", "forget", "clear", "_idle_check"):
            self._patch(memory_cls, name, checked(name))

    def _check_flowmemory(self, memory: Any, mutation: str) -> None:
        self.checks_run["flowmemory"] += 1
        now = memory.sim.now
        for key, flow in memory._flows.items():
            if flow.key != key:
                raise SanitizerError(
                    f"FlowMemory integrity after {mutation}: entry stored "
                    f"under {key!r} carries key {flow.key!r}")
            if flow.created_at > flow.last_used + 1e-12:
                raise SanitizerError(
                    f"FlowMemory integrity after {mutation}: flow {key!r} "
                    f"created_at {flow.created_at!r} after last_used "
                    f"{flow.last_used!r}")
            if flow.last_used > now + 1e-12:
                raise SanitizerError(
                    f"FlowMemory integrity after {mutation}: flow {key!r} "
                    f"last_used {flow.last_used!r} is in the future "
                    f"(now={now!r})")
        recount: Dict[Tuple[Any, Any, int], int] = {}
        for flow in memory._flows.values():
            target = (flow.cluster, flow.endpoint.ip, flow.endpoint.port)
            recount[target] = recount.get(target, 0) + 1
        if memory._refs != recount:
            raise SanitizerError(
                f"FlowMemory integrity after {mutation}: per-instance "
                f"reference counts {memory._refs!r} are not a recount of "
                f"the live flows {recount!r}")


    # ------------------------------------------- post-resync verification

    def _install_controller(self, controller_cls: type) -> None:
        sanitizer = self
        orig_barrier = controller_cls.on_barrier_reply

        # functools.wraps copies __dict__, carrying the @set_ev_cls handler
        # marker — without it the AppManager would no longer recognise the
        # patched method as the BarrierReply handler.
        @functools.wraps(orig_barrier)
        def on_barrier_reply(ctrl: Any, ev: Any) -> Any:
            # A round is complete when this barrier pops the last pending
            # per-datapath resync state.
            in_resync = ev.msg.datapath.id in ctrl._resync
            result = orig_barrier(ctrl, ev)
            if in_resync and not ctrl._resync:
                ctrl.sim.schedule(VERIFY_GRACE_S,
                                  sanitizer._verify_after_resync, ctrl)
            return result

        self._patch(controller_cls, "on_barrier_reply", on_barrier_reply)

    def _verify_after_resync(self, ctrl: Any) -> None:
        if not self.installed:
            return  # uninstalled while the grace delay was pending
        if not ctrl.manager.alive or ctrl._resync:
            return  # crashed again / resyncing again; that round re-arms us
        self.checks_run["verify"] += 1
        from repro.verify import verify_control_plane
        report = verify_control_plane(ctrl.manager, ctrl,
                                      strict_cookies=False)
        if not report.ok:
            raise SanitizerError(
                f"post-resync data-plane verification failed:\n"
                f"{report.to_text()}")


class _LedgerGenerator:
    """Counting proxy around a ``numpy.random.Generator``.

    Every method call (a draw, in practice) increments the ledger for the
    stream's name. Attribute reads delegate; state stays in the wrapped
    generator, so determinism is untouched.
    """

    __slots__ = ("_gen", "_name", "_ledger")

    def __init__(self, gen: Any, name: str, ledger: Dict[str, int]):
        object.__setattr__(self, "_gen", gen)
        object.__setattr__(self, "_name", name)
        object.__setattr__(self, "_ledger", ledger)

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._gen, attr)
        if not callable(value):
            return value
        ledger, name = self._ledger, self._name

        def counted(*args: Any, **kwargs: Any) -> Any:
            ledger[name] = ledger.get(name, 0) + 1
            return value(*args, **kwargs)

        return counted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LedgerGenerator {self._name!r} draws={self._ledger.get(self._name, 0)}>"


@contextlib.contextmanager
def sanitized() -> Iterator[Sanitizer]:
    """Context manager: install a fresh sanitizer, uninstall on exit.

    Nests under an already-installed sanitizer (e.g. the session-wide one
    from ``REPRO_SANITIZE=1``): the outer one is suspended for the duration
    so the inner context gets a clean ledger, then reinstated.
    """
    outer = _active
    if outer is not None:
        outer.uninstall()
    sanitizer = Sanitizer().install()
    try:
        yield sanitizer
    finally:
        sanitizer.uninstall()
        if outer is not None:
            outer.install()


def install_from_env() -> Optional[Sanitizer]:
    """Install a sanitizer when ``REPRO_SANITIZE=1`` (used by conftest)."""
    if os.environ.get("REPRO_SANITIZE") == "1" and _active is None:
        return Sanitizer().install()
    return None

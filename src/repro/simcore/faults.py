"""Deterministic fault injection (the platform's chaos layer).

Every component with a failure mode exposes a named *fault point* — e.g.
``registry.pull``, ``container.crash_start``, ``channel.loss`` — and asks the
simulation-wide :class:`FaultPlane` (``sim.faults``) whether to misbehave.
The plane draws from named child RNG streams of the run's root seed, so:

* with no faults configured, **no stream is ever created and no random
  number is ever drawn** — a run is bit-identical to one built before this
  module existed (the determinism contract of :mod:`repro.simcore`);
* with faults configured, the *same* seed reproduces the same failures at
  the same points, independent of unrelated components (streams are keyed
  by point name, not creation order).

Besides probabilistic points, :class:`FaultSchedule` injects *timed* faults
(cluster outages, link flaps, control-channel windows) declaratively: a list
of (at, duration, action) entries applied to a running simulator.

Fault points wired into the library
-----------------------------------
===========================  ====================================================
``registry.pull``            image pull fails (``RegistryUnavailable``)
``registry.stall``           image pull stalls for ``stall_s`` extra seconds
``container.crash_start``    container crashes during start (stays un-started)
``container.crash_run``      container crashes *after* becoming ready; the
                             crash time is ``stall_s`` mean exponential
``channel.loss``             a control-channel message is silently dropped
``channel.delay``            a control message pays an extra ``stall_s`` spike
``link.loss``                a data-plane frame is dropped in flight
``controller.crash``         the controller process crashes mid-event-loop
                             (rolled per dispatched event; see AppManager)
``controller.restart``       downtime of an injected controller crash
                             (``stall_s`` seconds; default 1.0)
===========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from numpy.random import Generator

    from repro.simcore.loop import Simulator
    from repro.simcore.rng import RandomStreams, ScopedStreams


class FaultInjected(RuntimeError):
    """Base class for errors raised *because* a fault point fired."""

    def __init__(self, point: str, message: str = "") -> None:
        super().__init__(message or f"injected fault at {point!r}")
        self.point = point


@dataclass
class FaultPoint:
    """Configuration of one named fault point."""

    #: probability in [0, 1] that one roll at this point fires
    rate: float = 0.0
    #: duration parameter (stall length / mean time-to-crash), seconds
    stall_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate!r}")
        if self.stall_s < 0:
            raise ValueError(f"stall must be non-negative, got {self.stall_s!r}")


class FaultPlane:
    """Per-simulation registry of fault points, armed with seeded streams.

    Disabled (the default) it is pure pass-through: :meth:`roll` returns
    ``False`` and :meth:`stall` returns ``0.0`` without touching any RNG, so
    arming the plane — not merely constructing it — is what can perturb a
    run.
    """

    def __init__(self) -> None:
        self._streams: Optional["ScopedStreams"] = None
        #: configured points by name. Empty means pass-through, and a
        #: per-frame caller tests that before paying for :meth:`roll`.
        self.points: Dict[str, FaultPoint] = {}
        #: point name -> number of times it fired (diagnostics)
        self.injected: Dict[str, int] = {}

    # ------------------------------------------------------------ configure

    def bind(self, streams: "RandomStreams | ScopedStreams") -> None:
        """Attach the RNG stream factory (a :class:`RandomStreams` or a
        scoped child). Done once by :class:`~repro.netsim.topology.Network`;
        harmless on its own — points must also be configured."""
        self._streams = streams

    def configure(self, point: str, rate: float = 0.0, stall_s: float = 0.0) -> None:
        """Set (or replace) one fault point. ``rate=0`` with ``stall_s=0``
        removes the point entirely."""
        if rate == 0.0 and stall_s == 0.0:
            self.points.pop(point, None)
            return
        self.points[point] = FaultPoint(rate=rate, stall_s=stall_s)

    def configure_many(self, points: Dict[str, Any]) -> None:
        """Bulk configure: ``{"registry.pull": 0.1}`` or
        ``{"registry.stall": {"rate": 0.05, "stall_s": 2.0}}``."""
        for name, value in points.items():
            if isinstance(value, dict):
                self.configure(name, **value)
            else:
                self.configure(name, rate=float(value))

    def clear(self) -> None:
        """Remove every configured point (the plane goes pass-through)."""
        self.points.clear()

    @property
    def armed(self) -> bool:
        """True when at least one point can fire."""
        return self._streams is not None and bool(self.points)

    def point(self, name: str) -> Optional[FaultPoint]:
        return self.points.get(name)

    # ---------------------------------------------------------------- rolls

    def _stream(self, name: str) -> "Generator":
        assert self._streams is not None
        return self._streams.stream(name)

    def roll(self, point: str) -> bool:
        """One Bernoulli draw at ``point``. False (and **no** RNG draw) when
        the point is not configured or the plane is unbound."""
        spec = self.points.get(point)
        if spec is None or spec.rate == 0.0 or self._streams is None:
            return False
        fired = bool(self._stream(point).random() < spec.rate)
        if fired:
            self.injected[point] = self.injected.get(point, 0) + 1
        return fired

    def stall(self, point: str) -> float:
        """Extra seconds to stall at ``point`` (0.0 when it does not fire).

        The stall fires with the point's ``rate`` and lasts ``stall_s``
        seconds exactly — deterministic length, probabilistic occurrence."""
        spec = self.points.get(point)
        if spec is None or spec.stall_s == 0.0 or self._streams is None:
            return 0.0
        if spec.rate < 1.0 and not self.roll(point):
            return 0.0
        if spec.rate >= 1.0:
            self.injected[point] = self.injected.get(point, 0) + 1
        return spec.stall_s

    def delay_after(self, point: str) -> float:
        """Exponential holding time with mean ``stall_s`` (for
        time-to-crash style faults). 0.0 when unconfigured."""
        spec = self.points.get(point)
        if spec is None or spec.stall_s == 0.0 or self._streams is None:
            return 0.0
        return float(self._stream(point + ".delay").exponential(spec.stall_s))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultPlane points={sorted(self.points)} "
                f"{'armed' if self.armed else 'disarmed'}>")


# ---------------------------------------------------------------------------
# Declarative timed faults
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimedFault:
    """One scheduled fault window: ``apply()`` at ``at``, ``revert()`` at
    ``at + duration_s`` (``duration_s=None`` → never reverted).

    ``target``/``kind`` identify what the window degrades; overlapping
    windows on the same (target, kind) are refcounted by the schedule so the
    revert only happens when the LAST open window closes. Without them each
    fault refcounts against itself (pre-existing behaviour, correct for
    non-overlapping use)."""

    at: float
    apply: Callable[[], Any]
    revert: Optional[Callable[[], Any]] = None
    duration_s: Optional[float] = None
    label: str = ""
    #: the degraded object (cluster, link, channel, manager); used only as
    #: an identity key for overlap refcounting
    target: Any = None
    #: which aspect of the target this window degrades
    kind: str = ""


@dataclass
class FaultSchedule:
    """A declarative list of timed fault windows.

    Build it with the helpers below (:func:`cluster_outage`,
    :func:`link_flap`, :func:`channel_outage`, :func:`controller_outage`) or
    raw :class:`TimedFault` entries, then :meth:`install` it onto a
    simulator. Scheduling uses plain simulator events, so an
    installed-but-empty schedule changes nothing.

    Overlapping windows on the same (target, kind) compose correctly: the
    fault stays applied until the last window closes. [0, 10) and [5, 8)
    outages of one cluster yield a single [0, 10) degradation, not a
    spurious recovery at t=8.
    """

    entries: List[TimedFault] = field(default_factory=list)
    #: open-window refcount per (target identity, kind)
    _active: Dict[Any, int] = field(default_factory=dict, repr=False)

    def add(self, fault: TimedFault) -> "FaultSchedule":
        self.entries.append(fault)
        return self

    def install(self, sim: "Simulator") -> None:
        for fault in self.entries:
            sim.schedule_at(fault.at, self._fire, sim, fault)

    @staticmethod
    def _key(fault: TimedFault) -> Any:
        if fault.target is not None:
            return (id(fault.target), fault.kind)
        return id(fault)  # untargeted: refcount against the fault itself

    def _fire(self, sim: "Simulator", fault: TimedFault) -> None:
        sim.trace.emit(sim.now, "faults", "apply",
                       {"label": fault.label or repr(fault.apply)})
        key = self._key(fault)
        self._active[key] = self._active.get(key, 0) + 1
        fault.apply()
        if fault.revert is not None and fault.duration_s is not None:
            sim.schedule(fault.duration_s, self._revert, sim, fault)

    def _revert(self, sim: "Simulator", fault: TimedFault) -> None:
        assert fault.revert is not None
        key = self._key(fault)
        remaining = self._active.get(key, 1) - 1
        if remaining > 0:
            # Another window on the same target is still open: closing this
            # one must not un-degrade it.
            self._active[key] = remaining
            sim.trace.emit(sim.now, "faults", "revert-deferred",
                           {"label": fault.label or repr(fault.revert),
                            "open_windows": remaining})
            return
        self._active.pop(key, None)
        sim.trace.emit(sim.now, "faults", "revert",
                       {"label": fault.label or repr(fault.revert)})
        fault.revert()


def cluster_outage(cluster: Any, at: float, duration_s: float) -> TimedFault:
    """The whole edge cluster (node/orchestrator) is unreachable for a
    window: deployments fail fast, readiness reads False."""
    return TimedFault(at=at, duration_s=duration_s,
                      apply=cluster.fail, revert=cluster.recover,
                      label=f"outage:{cluster.name}",
                      target=cluster, kind="outage")


def link_flap(link: Any, at: float, duration_s: float) -> TimedFault:
    """A data-plane link goes down for a window (frames in flight lost)."""
    return TimedFault(at=at, duration_s=duration_s,
                      apply=lambda: link.set_up(False),
                      revert=lambda: link.set_up(True),
                      label=f"flap:{link.name}",
                      target=link, kind="flap")


def channel_outage(channel: Any, at: float, duration_s: float) -> TimedFault:
    """The switch–controller control channel is severed for a window."""
    return TimedFault(at=at, duration_s=duration_s,
                      apply=channel.disconnect, revert=channel.reconnect,
                      label="channel-outage",
                      target=channel, kind="outage")


def controller_outage(manager: Any, at: float, duration_s: float) -> TimedFault:
    """The controller *process* crashes for a window: queued events are
    lost, every control channel drops, apps drop volatile state; the warm
    restart at window end triggers flow-state reconciliation (see
    :meth:`~repro.ryuapp.manager.AppManager.crash` and docs/faults.md)."""
    return TimedFault(at=at, duration_s=duration_s,
                      apply=manager.crash, revert=manager.restart,
                      label="controller-outage",
                      target=manager, kind="controller")

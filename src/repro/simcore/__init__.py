"""Deterministic discrete-event simulation kernel.

This package provides the substrate every other subsystem runs on: a single
event loop ordered by (time, sequence-number), generator-based processes,
waitable signals/timeouts, seeded random-number streams, and a structured
trace log.

Determinism contract
--------------------
* All state changes happen inside callbacks executed by :class:`Simulator`.
* Events scheduled for the same simulated time fire in scheduling order.
* All randomness must come from :class:`RandomStreams` children so that a
  single root seed reproduces an entire run bit-for-bit.
"""

from repro.simcore.errors import (
    ProcessKilled,
    ProcessStateError,
    ScheduleInPastError,
    SignalStateError,
    SimulationError,
    SimulatorReentryError,
)
from repro.simcore.faults import (
    FaultInjected,
    FaultPlane,
    FaultPoint,
    FaultSchedule,
    TimedFault,
    channel_outage,
    cluster_outage,
    controller_outage,
    link_flap,
)
from repro.simcore.loop import EventHandle, Simulator
from repro.simcore.process import Process, Timeout, Waitable
from repro.simcore.rng import RandomStreams
from repro.simcore.signal import Signal
from repro.simcore.trace import TraceLog, TraceRecord

__all__ = [
    "Simulator",
    "EventHandle",
    "FaultInjected",
    "FaultPlane",
    "FaultPoint",
    "FaultSchedule",
    "TimedFault",
    "channel_outage",
    "cluster_outage",
    "controller_outage",
    "link_flap",
    "Signal",
    "Process",
    "Timeout",
    "Waitable",
    "RandomStreams",
    "TraceLog",
    "TraceRecord",
    "SimulationError",
    "ProcessKilled",
    "ProcessStateError",
    "ScheduleInPastError",
    "SignalStateError",
    "SimulatorReentryError",
]

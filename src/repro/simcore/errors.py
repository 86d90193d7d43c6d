"""Exception hierarchy for the simulation kernel."""


class SimulationError(Exception):
    """Base class for all kernel-level errors."""


class ProcessKilled(SimulationError):
    """Injected into a process generator when :meth:`Process.kill` is called."""


class ScheduleInPastError(SimulationError):
    """Raised when an event is scheduled with a negative delay."""


class SimulatorReentryError(SimulationError, RuntimeError):
    """Raised when :meth:`Simulator.run` is entered re-entrantly.

    Subclasses :class:`RuntimeError` for backwards compatibility with callers
    that predate the typed hierarchy.
    """


class SignalStateError(SimulationError, RuntimeError):
    """Raised on invalid :class:`Signal` state transitions: reading a result
    before completion, or completing an already-completed signal."""


class ProcessStateError(SimulationError, RuntimeError):
    """Raised when :attr:`Process.result` is read while the process is
    still running."""

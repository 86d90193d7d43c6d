"""One-shot settable events (futures) for the simulation kernel.

A :class:`Signal` is the kernel's future/promise: it is created unset, is set
(or failed) exactly once, and wakes every subscriber *via the event loop* so
that same-time wakeups preserve global FIFO ordering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.simcore.errors import SignalStateError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.loop import Simulator

_UNSET = object()


class Signal:
    """A one-shot waitable value.

    Processes wait on a signal with ``result = yield sig``; callback code
    subscribes with :meth:`subscribe`. Setting an already-set signal raises,
    which catches double-completion bugs early.
    """

    __slots__ = ("sim", "name", "_value", "_exception", "_subscribers")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._value: Any = _UNSET
        self._exception: Optional[BaseException] = None
        self._subscribers: Optional[list[Callable[["Signal"], None]]] = []

    # ----------------------------------------------------------------- state

    @property
    def done(self) -> bool:
        # set/fail/set_if_unset test the two slots inline: a property read
        # is one more call per completion.
        return self._value is not _UNSET or self._exception is not None

    @property
    def ok(self) -> bool:
        """True when the signal completed successfully."""
        return self._value is not _UNSET

    @property
    def result(self) -> Any:
        """The value set by :meth:`set`; raises the stored exception if the
        signal failed, and :class:`SignalStateError` if it is not done yet."""
        if self._exception is not None:
            raise self._exception
        if self._value is _UNSET:
            raise SignalStateError(f"Signal {self.name!r} is not set yet")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # ------------------------------------------------------------ completion

    def set(self, value: Any = None) -> None:
        """Complete the signal successfully with ``value``."""
        if self._value is not _UNSET or self._exception is not None:
            raise SignalStateError(f"Signal {self.name!r} already completed")
        self._value = value
        self._fire()

    def fail(self, exc: BaseException) -> None:
        """Complete the signal with an exception; waiters will re-raise it."""
        if self._value is not _UNSET or self._exception is not None:
            raise SignalStateError(f"Signal {self.name!r} already completed")
        self._exception = exc
        self._fire()

    def set_if_unset(self, value: Any = None) -> bool:
        """Complete with ``value`` unless already done; returns whether it
        completed now. Useful for races (e.g. first-of-N readiness probes)."""
        if self._value is not _UNSET or self._exception is not None:
            return False
        self.set(value)
        return True

    def _fire(self) -> None:
        subscribers, self._subscribers = self._subscribers, None
        if subscribers:
            for cb in subscribers:
                # Deliver through the loop to keep FIFO determinism.
                self.sim.call_soon(cb, self)

    # ----------------------------------------------------------- subscribing

    def subscribe(self, callback: Callable[["Signal"], None]) -> None:
        """Invoke ``callback(self)`` once the signal completes.

        If it already completed, the callback is scheduled immediately
        (still via the loop, never synchronously).
        """
        if self._subscribers is None:
            self.sim.call_soon(callback, self)
        else:
            self._subscribers.append(callback)

    # Waitable protocol (see repro.simcore.process).
    def _wait_subscribe(self, callback: Callable[["Signal"], None]) -> None:
        self.subscribe(callback)

    def _wait_result(self) -> Any:
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "pending"
        return f"<Signal {self.name!r} {state}>"

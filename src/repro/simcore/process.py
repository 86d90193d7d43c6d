"""Generator-based processes and waitable combinators.

A *process* is a Python generator driven by the event loop. Each ``yield``
hands the loop a *waitable*; the process resumes when the waitable completes,
receiving its result as the value of the ``yield`` expression (or having the
waitable's exception raised at the yield point).

Waitable protocol
-----------------
An object is waitable if it provides::

    _wait_subscribe(callback)   # call callback(waitable) once complete
    _wait_result()              # value to send into the generator / may raise

:class:`Timeout`, :class:`~repro.simcore.signal.Signal`, :class:`Process`,
:class:`AllOf` and :class:`AnyOf` all implement it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Protocol, Tuple, Union, runtime_checkable

from repro.simcore.errors import ProcessKilled, ProcessStateError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.loop import Simulator

#: a process name: a string, or a tuple of parts that reads as the parts'
#: ``str`` joined by ``":"`` — formatted on first read, so a per-request
#: process whose name nobody reads never formats it
ProcessName = Union[str, Tuple[Any, ...]]


@runtime_checkable
class Waitable(Protocol):
    """Structural type for objects a process may ``yield``."""

    def _wait_subscribe(self, callback: Callable[[Any], None]) -> None: ...

    def _wait_result(self) -> Any: ...


class Timeout:
    """A waitable that completes ``delay`` seconds after creation.

    Completes with ``value`` (default ``None``). Cancelling a pending
    timeout detaches it from the loop; a cancelled timeout never fires.
    """

    __slots__ = ("sim", "delay", "value", "_handle", "_done", "_callbacks")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        self.sim = sim
        self.delay = delay
        self.value = value
        self._done = False
        self._callbacks: list[Callable[["Timeout"], None]] = []
        self._handle = sim.schedule(delay, self._expire)

    def _expire(self) -> None:
        self._done = True
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def cancel(self) -> None:
        self._handle.cancel()
        self._callbacks = []

    @property
    def done(self) -> bool:
        return self._done

    def _wait_subscribe(self, callback: Callable[["Timeout"], None]) -> None:
        if self._done:
            self.sim.call_soon(callback, self)
        else:
            self._callbacks.append(callback)

    def _wait_result(self) -> Any:
        return self.value


class Process:
    """A running generator on the event loop.

    Created via :meth:`Simulator.spawn`. A process is itself waitable, so
    one process can ``yield`` another to join it and receive its return
    value (exceptions propagate to the joiner).
    """

    __slots__ = ("sim", "_name", "_gen", "_done", "_result", "_exception", "_joiners", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Iterator[Any], name: ProcessName = "") -> None:
        self.sim = sim
        self._name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self._done = False
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._joiners: list[Callable[["Process"], None]] = []
        self._waiting_on: Optional[Any] = None
        if sim.trace.enabled:
            sim.trace.emit(sim.now, "process", "spawn", {"name": self.name})
        # Kick off on the loop, not synchronously, so spawn order == first
        # execution order regardless of where spawn() was called from.
        sim.call_soon(self._step_send, None)

    # ----------------------------------------------------------- state

    @property
    def name(self) -> str:
        if isinstance(self._name, tuple):
            self._name = ":".join(map(str, self._name))
        return self._name

    @property
    def alive(self) -> bool:
        return not self._done

    @property
    def done(self) -> bool:
        return self._done

    @property
    def result(self) -> Any:
        if not self._done:
            raise ProcessStateError(f"process {self.name!r} still running")
        if self._exception is not None:
            raise self._exception
        return self._result

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception if self._done else None

    # ----------------------------------------------------------- driving

    def _step_send(self, value: Any) -> None:
        if self._done:
            return
        try:
            yielded = self._gen.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process crash captured
            self._finish(exception=exc)
            return
        self._wait_on(yielded)

    def _step_throw(self, exc: BaseException) -> None:
        if self._done:
            return
        try:
            yielded = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as err:  # noqa: BLE001
            self._finish(exception=err)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        try:
            subscribe = yielded._wait_subscribe
        except AttributeError:
            self._step_throw(TypeError(f"process {self.name!r} yielded non-waitable {yielded!r}"))
            return
        self._waiting_on = yielded
        subscribe(self._resume)

    def _resume(self, waitable: Any) -> None:
        if self._done or waitable is not self._waiting_on:
            return  # stale wakeup (e.g. after kill)
        self._waiting_on = None
        try:
            value = waitable._wait_result()
        except BaseException as exc:  # noqa: BLE001 - propagate into generator
            self._step_throw(exc)
            return
        self._step_send(value)

    def _finish(self, result: Any = None, exception: Optional[BaseException] = None) -> None:
        self._done = True
        self._result = result
        self._exception = exception
        self._waiting_on = None
        self._gen.close()
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(self.sim.now, "process", "finish",
                       {"name": self.name, "ok": exception is None})
        joiners, self._joiners = self._joiners, []
        for cb in joiners:
            self.sim.call_soon(cb, self)

    # ----------------------------------------------------------- control

    def kill(self, reason: str = "") -> None:
        """Throw :class:`ProcessKilled` into the process at its yield point.

        The process may catch it to clean up; if it does not, it terminates
        with the exception recorded (joiners will see it)."""
        if self._done:
            return
        self._waiting_on = None  # detach from whatever it awaited
        self._step_throw(ProcessKilled(reason or f"process {self.name!r} killed"))

    # Waitable protocol --------------------------------------------------

    def _wait_subscribe(self, callback: Callable[["Process"], None]) -> None:
        if self._done:
            self.sim.call_soon(callback, self)
        else:
            self._joiners.append(callback)

    def _wait_result(self) -> Any:
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "alive"
        return f"<Process {self.name!r} {state}>"


class AllOf:
    """Waitable that completes when *all* child waitables complete.

    Result is the list of child results in construction order. If any child
    fails, the first failure (in completion order) is raised at the yield
    point once all children finished.
    """

    __slots__ = ("sim", "children", "_remaining", "_callbacks", "_first_exc")

    def __init__(self, sim: "Simulator", children: list[Any]) -> None:
        self.sim = sim
        self.children = list(children)
        self._remaining = len(self.children)
        self._callbacks: list[Callable[["AllOf"], None]] = []
        self._first_exc: Optional[BaseException] = None
        if self._remaining == 0:
            sim.call_soon(self._complete)
        else:
            for child in self.children:
                child._wait_subscribe(self._child_done)

    def _child_done(self, child: Any) -> None:
        try:
            child._wait_result()
        except BaseException as exc:  # noqa: BLE001
            if self._first_exc is None:
                self._first_exc = exc
        self._remaining -= 1
        if self._remaining == 0:
            self._complete()

    def _complete(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    @property
    def done(self) -> bool:
        return self._remaining == 0

    def _wait_subscribe(self, callback: Callable[["AllOf"], None]) -> None:
        if self.done:
            self.sim.call_soon(callback, self)
        else:
            self._callbacks.append(callback)

    def _wait_result(self) -> Any:
        if self._first_exc is not None:
            raise self._first_exc
        return [c._wait_result() for c in self.children]


class AnyOf:
    """Waitable that completes when the *first* child completes.

    Result is ``(index, value)`` of the winning child; a failing first child
    propagates its exception. Remaining children keep running — callers that
    race a :class:`Timeout` against work should cancel the loser themselves.
    """

    __slots__ = ("sim", "children", "_winner", "_callbacks")

    def __init__(self, sim: "Simulator", children: list[Any]) -> None:
        if not children:
            raise ValueError("AnyOf requires at least one child")
        self.sim = sim
        self.children = list(children)
        self._winner: Optional[int] = None
        self._callbacks: list[Callable[["AnyOf"], None]] = []
        for index, child in enumerate(self.children):
            child._wait_subscribe(lambda c, i=index: self._child_done(i))

    def _child_done(self, index: int) -> None:
        if self._winner is not None:
            return
        self._winner = index
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    @property
    def done(self) -> bool:
        return self._winner is not None

    @property
    def winner(self) -> Optional[int]:
        return self._winner

    def _wait_subscribe(self, callback: Callable[["AnyOf"], None]) -> None:
        if self.done:
            self.sim.call_soon(callback, self)
        else:
            self._callbacks.append(callback)

    def _wait_result(self) -> Any:
        assert self._winner is not None
        return (self._winner, self.children[self._winner]._wait_result())

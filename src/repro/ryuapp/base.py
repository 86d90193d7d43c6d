"""``RyuApp`` base class and the ``set_ev_cls`` handler decorator."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Type, Union

from repro.ryuapp.events import MAIN_DISPATCHER, EventBase

if TYPE_CHECKING:  # pragma: no cover
    from repro.ryuapp.manager import AppManager
    from repro.simcore import Process, Simulator
    from repro.simcore.process import ProcessName

_HANDLER_ATTR = "_ryu_handler_for"


def set_ev_cls(
    event_class: Union[Type[EventBase], Iterable[Type[EventBase]]],
    dispatchers: Union[str, Iterable[str]] = MAIN_DISPATCHER,
) -> Callable:
    """Decorator registering a method as a handler for an event class.

    Matches Ryu's signature; the dispatcher argument is recorded but (as in
    most Ryu apps) only MAIN_DISPATCHER handlers matter here.
    """
    classes = [event_class] if isinstance(event_class, type) else list(event_class)

    def decorator(func: Callable) -> Callable:
        setattr(func, _HANDLER_ATTR, classes)
        return func

    return decorator


class RyuApp:
    """Base class for controller applications.

    Subclasses declare handlers with :func:`set_ev_cls`; the
    :class:`~repro.ryuapp.manager.AppManager` collects them at registration
    time. Apps get:

    * ``self.sim`` — the simulator (for time and scheduling),
    * ``self.spawn(gen)`` — Ryu's ``hub.spawn`` equivalent,
    * ``self.logger`` — a tiny trace-backed logger.
    """

    def __init__(self, manager: "AppManager", **config: Any):
        self.manager = manager
        self.sim: "Simulator" = manager.sim
        self.config = config
        self.name = type(self).__name__

    # ----------------------------------------------------------- utilities

    def spawn(self, generator: Any, name: "ProcessName" = "") -> "Process":
        """Start a green-thread-style process (Ryu's ``hub.spawn``)."""
        return self.sim.spawn(generator, name=name or f"{self.name}.task")

    def log(self, event: str, **data: Any) -> None:
        self.sim.trace.emit(self.sim.now, "app." + self.name, event, data)

    # -------------------------------------------------------- introspection

    @classmethod
    def handlers(cls) -> List[tuple]:
        """All (event_class, unbound_method) pairs declared on this class."""
        out = []
        for attr_name in dir(cls):
            attr = getattr(cls, attr_name, None)
            event_classes = getattr(attr, _HANDLER_ATTR, None)
            if event_classes:
                for event_class in event_classes:
                    out.append((event_class, attr))
        return out

    # --------------------------------------------------------------- hooks

    def start(self) -> None:
        """Called once by the manager after registration (override freely)."""

    def stop(self) -> None:
        """Called when the manager shuts the app down."""

    def on_crash(self) -> None:
        """Called when the hosting controller process crashes
        (:meth:`AppManager.crash`): drop all volatile state — a restarted
        controller must rebuild it by reconciliation, not remember it."""

    def on_restart(self) -> None:
        """Called when the crashed controller comes back up
        (:meth:`AppManager.restart`), *before* the per-datapath
        reconnect state-change events fire."""

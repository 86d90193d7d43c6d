"""The controller runtime: single-threaded event dispatch to RyuApps.

Ryu runs applications on one eventlet thread; handler execution serializes.
The :class:`AppManager` reproduces that: messages from all switches enter one
FIFO queue and a dispatcher process charges a configurable per-event service
time before running the handlers. Controller CPU time is therefore a shared,
contended resource — which is exactly what experiment A3 measures when many
new flows arrive at once.

Resilience (docs/faults.md): the manager also models the controller
*process*. :meth:`crash` kills it — queued events are lost, every control
channel drops, apps get their ``on_crash`` hook — and :meth:`restart` brings
it back (channels reconnect, apps get ``on_restart``, and a MAIN state-change
fires per datapath so apps can resynchronize). The ``controller.crash``
fault point rolls per dispatched event; ``controller.restart`` sets the
injected downtime. :meth:`enable_heartbeat` arms the controller-side echo
heartbeat that detects switch/channel outages.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Type

from repro.metrics.recovery import RecoveryLog
from repro.openflow.channel import ControlChannel
from repro.openflow.messages import EchoReply, EchoRequest, Message
from repro.openflow.switch import OpenFlowSwitch
from repro.ryuapp.base import RyuApp
from repro.ryuapp.datapath import Datapath
from repro.ryuapp.events import (
    DEAD_DISPATCHER,
    MAIN_DISPATCHER,
    MESSAGE_EVENTS,
    EventBase,
    EventOFPStateChange,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore import Simulator

#: injected downtime of a ``controller.crash`` when the ``controller.restart``
#: fault point does not specify one
DEFAULT_RESTART_DELAY_S = 1.0


class AppManager:
    """Hosts RyuApps and pumps switch messages through their handlers.

    Parameters
    ----------
    service_time_s:
        CPU time charged per dispatched event (controller processing cost).
        The paper's EGS-hosted Ryu controller handles a packet-in in a few
        hundred microseconds; 0.0002 s is the calibrated default.
    """

    def __init__(self, sim: "Simulator", service_time_s: float = 0.0002):
        self.sim = sim
        self.service_time_s = service_time_s
        self.apps: List[RyuApp] = []
        self._handlers: Dict[Type[EventBase], List] = {}
        self.datapaths: Dict[int, Datapath] = {}
        self._queue: deque = deque()
        self._pump_running = False
        #: False while the controller process is crashed
        self.alive = True
        #: recovery measurement (detections + resyncs; see repro.metrics)
        self.recovery = RecoveryLog()
        # ---- heartbeat (off unless enable_heartbeat() is called)
        self._heartbeat_interval_s: Optional[float] = None
        self._heartbeat_miss_limit = 3
        self._heartbeat_handle: Optional[Any] = None
        self._next_echo_xid = 1
        #: diagnostics
        self.events_dispatched = 0
        self.max_queue_depth = 0
        self.crashes = 0
        self.events_lost = 0

    # ---------------------------------------------------------------- apps

    def register(self, app_class: Type[RyuApp], **config: Any) -> RyuApp:
        """Instantiate ``app_class`` and wire up its declared handlers."""
        app = app_class(self, **config)
        self.apps.append(app)
        for event_class, method in app_class.handlers():
            self._handlers.setdefault(event_class, []).append((app, method))
        app.start()
        return app

    def app(self, app_class: Type[RyuApp]) -> Optional[RyuApp]:
        for candidate in self.apps:
            if isinstance(candidate, app_class):
                return candidate
        return None

    # ------------------------------------------------------------ switches

    def connect_switch(self, switch: OpenFlowSwitch, channel: ControlChannel) -> Datapath:
        """Attach a switch via ``channel``; fires EventOFPStateChange(MAIN)."""
        datapath = Datapath(switch, channel)
        self.datapaths[switch.dpid] = datapath
        switch.connect_controller(channel, self)
        self._enqueue(EventOFPStateChange(datapath, MAIN_DISPATCHER))
        return datapath

    # ControllerEndpoint protocol ----------------------------------------

    def on_switch_message(self, switch: OpenFlowSwitch, message: Message) -> None:
        if not self.alive:
            return  # crashed process reads nothing off its sockets
        datapath = self.datapaths.get(switch.dpid)
        if datapath is None:
            return  # message from a switch that was never connected
        # Any message from the switch proves the channel is alive.
        datapath.echo_outstanding = 0
        if not datapath.alive:
            self._revive_datapath(datapath)
        if isinstance(message, EchoRequest):
            # Answered at the protocol layer (like Ryu's OF handshake code),
            # not queued through app dispatch.
            datapath.channel.to_switch(EchoReply(payload=message.payload,
                                                 xid=message.xid))
            return
        message.datapath = datapath  # type: ignore[attr-defined]
        event_class = MESSAGE_EVENTS.get(type(message).__name__)
        if event_class is None:
            return
        self._enqueue(event_class(message))

    # ------------------------------------------------------------ heartbeat

    def enable_heartbeat(self, interval_s: float = 1.0, miss_limit: int = 3) -> None:
        """Probe every datapath with an EchoRequest each ``interval_s``;
        after ``miss_limit`` unanswered probes the datapath is declared
        dead (``EventOFPStateChange(DEAD_DISPATCHER)``); the first message
        it sends afterwards revives it (``MAIN_DISPATCHER`` fires again so
        apps can resynchronize).

        Off by default — an un-enabled heartbeat schedules nothing, so
        existing runs stay bit-identical."""
        if interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        if miss_limit < 1:
            raise ValueError("miss limit must be >= 1")
        self._heartbeat_interval_s = interval_s
        self._heartbeat_miss_limit = miss_limit
        if self._heartbeat_handle is None:
            self._heartbeat_handle = self.sim.schedule(interval_s, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        assert self._heartbeat_interval_s is not None
        self._heartbeat_handle = self.sim.schedule(self._heartbeat_interval_s,
                                                   self._heartbeat_tick)
        if not self.alive:
            return  # a crashed controller probes nothing
        for dpid in sorted(self.datapaths):
            datapath = self.datapaths[dpid]
            if (datapath.alive
                    and datapath.echo_outstanding >= self._heartbeat_miss_limit):
                datapath.alive = False
                down_since = getattr(datapath.channel, "down_since", None)
                self.recovery.record_detection(
                    dpid=dpid, at=self.sim.now,
                    detection_s=(self.sim.now - down_since
                                 if down_since is not None else None))
                self.sim.trace.emit(self.sim.now, "ryu", "datapath-dead",
                                    {"dpid": dpid,
                                     "missed": datapath.echo_outstanding})
                self._enqueue(EventOFPStateChange(datapath, DEAD_DISPATCHER))
            datapath.echo_outstanding += 1
            self._next_echo_xid += 1
            datapath.channel.to_switch(EchoRequest(payload=dpid,
                                                   xid=self._next_echo_xid))

    def _revive_datapath(self, datapath: Datapath) -> None:
        datapath.alive = True
        self.sim.trace.emit(self.sim.now, "ryu", "datapath-revived",
                            {"dpid": datapath.id})
        self._enqueue(EventOFPStateChange(datapath, MAIN_DISPATCHER))

    # --------------------------------------------------------- crash/restart

    def crash(self) -> None:
        """The controller process dies: queued events are lost, every
        control channel drops, apps lose their volatile state
        (:meth:`RyuApp.on_crash`). Idempotent while already crashed."""
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self.events_lost += len(self._queue)
        self._queue.clear()
        self._pump_running = False
        for datapath in self.datapaths.values():
            datapath.channel.disconnect()
            datapath.alive = False
            datapath.echo_outstanding = 0
        self.sim.trace.emit(self.sim.now, "ryu", "controller-crash",
                            {"events_lost": self.events_lost})
        for app in self.apps:
            app.on_crash()

    def restart(self) -> None:
        """Warm restart after :meth:`crash`: channels reconnect, apps get
        :meth:`RyuApp.on_restart`, then a MAIN state-change fires per
        datapath (apps reconcile from there). Idempotent while alive."""
        if self.alive:
            return
        self.alive = True
        for dpid in sorted(self.datapaths):
            datapath = self.datapaths[dpid]
            datapath.channel.reconnect()
            datapath.alive = True
            datapath.echo_outstanding = 0
        self.sim.trace.emit(self.sim.now, "ryu", "controller-restart", {})
        for app in self.apps:
            app.on_restart()
        for dpid in sorted(self.datapaths):
            self._enqueue(EventOFPStateChange(self.datapaths[dpid],
                                              MAIN_DISPATCHER))

    # ------------------------------------------------------------- dispatch

    def _enqueue(self, event: EventBase) -> None:
        if not self.alive:
            self.events_lost += 1
            return
        self._queue.append(event)
        if len(self._queue) > self.max_queue_depth:
            self.max_queue_depth = len(self._queue)
        if not self._pump_running:
            self._pump_running = True
            self.sim.schedule(self.service_time_s, self._pump)

    def _pump(self) -> None:
        if not self.alive or not self._queue:
            self._pump_running = False
            return
        faults = self.sim.faults
        if faults.points and faults.roll("controller.crash"):
            # The process dies mid-event-loop; the injected downtime comes
            # from the controller.restart point (defaulting to 1 s).
            self.crash()
            delay = faults.stall("controller.restart") or DEFAULT_RESTART_DELAY_S
            self.sim.schedule(delay, self.restart)
            return
        event = self._queue.popleft()
        try:
            self._dispatch(event)
        finally:
            # Also on a handler exception, which still propagates (the
            # simulator fails loud): a caller that catches it finds the pump
            # re-armed for the queued events, not wedged on _pump_running.
            if self._queue:
                self.sim.schedule(self.service_time_s, self._pump)
            else:
                self._pump_running = False

    def _dispatch(self, event: EventBase) -> None:
        self.events_dispatched += 1
        for event_class, handlers in self._handlers.items():
            if isinstance(event, event_class):
                for app, method in handlers:
                    method(app, event)

    # ------------------------------------------------------------- shutdown

    def stop(self) -> None:
        for app in self.apps:
            app.stop()

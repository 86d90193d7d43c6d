"""The control channel between a switch and its controller.

A :class:`ControlChannel` models the TCP session a real OpenFlow switch keeps
to its controller as a FIFO pipe with fixed one-way latency (and optional
bandwidth). Experiment A2's "first-packet overhead" is two traversals of
this channel plus controller processing time, so its latency is a first-class
experiment parameter.

Outage accounting: :meth:`disconnect`/:meth:`reconnect` sever and restore the
pipe. Messages sent while down — and messages that were in flight when the
cut happened — are dropped, but never silently: they are counted per
direction (``drops_up``/``drops_down``) and every outage window is recorded
(``outages``, ``down_since``, ``total_outage_s``), so liveness detectors and
failure reports can see exactly what an outage cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Protocol, runtime_checkable

from repro.openflow.messages import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.openflow.switch import OpenFlowSwitch
    from repro.simcore import Simulator


@runtime_checkable
class ControllerEndpoint(Protocol):
    """What the channel needs from a controller implementation."""

    def on_switch_message(self, switch: "OpenFlowSwitch", message: Message) -> None: ...


class ControlChannel:
    """FIFO, latency-delayed, bidirectional control pipe.

    Parameters
    ----------
    latency_s:
        One-way latency. The paper's controller runs on the same edge
        gateway server as OVS, so the canonical topology uses ~0.2 ms.
    bandwidth_bps:
        Optional serialization rate for control messages (None = infinite).
    """

    def __init__(
        self,
        sim: "Simulator",
        latency_s: float = 0.0002,
        bandwidth_bps: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.latency_s = latency_s
        self.bandwidth_bps = bandwidth_bps
        self.switch: Optional["OpenFlowSwitch"] = None
        self.controller: Optional[ControllerEndpoint] = None
        self.connected = True
        self._busy_until_up = 0.0
        self._busy_until_down = 0.0
        #: diagnostics
        self.messages_up = 0  # switch -> controller
        self.messages_down = 0  # controller -> switch
        self.messages_lost = 0  # injected control-message losses
        #: messages dropped because the channel was down — sends while
        #: severed plus deliveries whose flight straddled the cut
        self.drops_up = 0  # switch -> controller
        self.drops_down = 0  # controller -> switch
        #: outage bookkeeping (None while the channel is up)
        self.down_since: Optional[float] = None
        self.outages = 0
        self.total_outage_s = 0.0
        self.last_outage_s = 0.0

    def bind(self, switch: "OpenFlowSwitch", controller: ControllerEndpoint) -> None:
        self.switch = switch
        self.controller = controller

    def _send(self, message: Message, up: bool) -> None:
        """Put ``message`` in flight in one direction: the fault plane's
        loss roll and delay spike (consulted only when it has points, the
        way ``Link.transmit`` does), then FIFO serialization behind that
        direction's previous message, then the one-way latency. The float
        arithmetic is kept in exactly this order — every later timestamp of
        the run is built from it."""
        sim = self.sim
        faults = sim.faults
        spike = 0.0
        if faults.points:
            if faults.roll("channel.loss"):
                self.messages_lost += 1
                return  # injected loss: the message vanishes in flight
            spike = faults.stall("channel.delay")
        now = sim.now
        busy = self._busy_until_up if up else self._busy_until_down
        start = busy if busy > now else now
        bandwidth = self.bandwidth_bps
        done = start + (0.0 if bandwidth is None else message.wire_bytes * 8.0 / bandwidth)
        if up:
            self.messages_up += 1
            self._busy_until_up = done
            deliver = self._deliver_up
        else:
            self.messages_down += 1
            self._busy_until_down = done
            deliver = self._deliver_down
        sim.schedule((done - now) + self.latency_s + spike, deliver, message)

    def to_controller(self, message: Message) -> None:
        """Deliver ``message`` from the switch to the controller."""
        if not self.connected:
            self.drops_up += 1
            return
        if self.controller is not None:
            self._send(message, True)

    def _deliver_up(self, message: Message) -> None:
        if not self.connected:
            self.drops_up += 1  # was in flight when the channel went down
            return
        if self.controller is not None and self.switch is not None:
            self.controller.on_switch_message(self.switch, message)

    def to_switch(self, message: Message) -> None:
        """Deliver ``message`` from the controller to the switch."""
        if not self.connected:
            self.drops_down += 1
            return
        if self.switch is not None:
            self._send(message, False)

    def _deliver_down(self, message: Message) -> None:
        if not self.connected:
            self.drops_down += 1  # was in flight when the channel went down
            return
        if self.switch is not None:
            self.switch.on_controller_message(message)

    def disconnect(self) -> None:
        """Sever the channel (failure injection: packets in flight are lost).

        Idempotent — a second ``disconnect`` inside an open window does not
        start a new outage record."""
        if not self.connected:
            return
        self.connected = False
        self.outages += 1
        self.down_since = self.sim.now

    def reconnect(self) -> None:
        """Restore the channel; closes the current outage record."""
        if self.connected:
            return
        self.connected = True
        if self.down_since is not None:
            self.last_outage_s = self.sim.now - self.down_since
            self.total_outage_s += self.last_outage_s
        self.down_since = None

    def stats(self) -> Dict[str, Any]:
        """Channel diagnostics, including outage windows and drop counts."""
        return {
            "connected": self.connected,
            "messages_up": self.messages_up,
            "messages_down": self.messages_down,
            "messages_lost": self.messages_lost,
            "drops_up": self.drops_up,
            "drops_down": self.drops_down,
            "outages": self.outages,
            "total_outage_s": self.total_outage_s,
            "last_outage_s": self.last_outage_s,
            "down_since": self.down_since,
        }

"""The OpenFlow switch (datapath).

Models an OVS-style software switch: a single flow table, a packet buffer
for table misses, reserved-port handling (FLOOD / CONTROLLER / IN_PORT), and
the controller protocol (PacketIn/PacketOut/FlowMod/FlowRemoved/stats/echo/
barrier). Per-packet datapath latency is a small constant (``forwarding
-delay``), matching a kernel fast path; the slow path's cost is dominated by
the control-channel round trip, which is modelled in
:class:`~repro.openflow.channel.ControlChannel`. Every frame costs one flow
table lookup; no per-switch cache sits in front of the table.

The switch runs the matched entry's compiled
:class:`~repro.openflow.actions.ActionProgram` itself (``_execute``): each
step's writes are one flat ``EthernetFrame.rewrite_headers`` call, and an
output to a physical port is counted and scheduled inline. Reserved ports go
through ``_output``; one the datapath does not implement (``OFPP_ANY``, ...)
drops the frame. A PacketOut's action list is compiled and run the same way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.netsim.device import Device
from repro.netsim.packet import EthernetFrame
from repro.openflow.actions import ActionProgram, OutputAction
from repro.openflow.channel import ControlChannel
from repro.openflow.constants import (
    OFP_NO_BUFFER,
    OFPFC_ADD,
    OFPFC_DELETE,
    OFPFC_DELETE_STRICT,
    OFPFC_MODIFY,
    OFPP_ALL,
    OFPP_CONTROLLER,
    OFPP_FLOOD,
    OFPP_IN_PORT,
    OFPR_ACTION,
)
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import FieldDict, extract_fields
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    FlowMod,
    FlowRemoved,
    FlowStatsReply,
    FlowStatsRequest,
    Message,
    PacketIn,
    PacketOut,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore import Simulator


class OpenFlowSwitch(Device):
    """An OpenFlow 1.3-style datapath.

    Parameters
    ----------
    dpid:
        Datapath id (unique per switch).
    forwarding_delay_s:
        Fast-path per-packet latency (lookup + action execution).
    buffer_capacity:
        Max packets buffered awaiting controller decisions; overflow falls
        back to NO_BUFFER packet-ins carrying the full frame.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        dpid: int,
        channel: Optional[ControlChannel] = None,
        forwarding_delay_s: float = 5e-6,
        buffer_capacity: int = 1024,
    ) -> None:
        super().__init__(sim, name)
        self.dpid = dpid
        self.channel = channel
        self.forwarding_delay_s = forwarding_delay_s
        self.buffer_capacity = buffer_capacity
        self.table = FlowTable(sim, name=f"{name}.table0", on_removed=self._flow_removed)
        self._buffer: Dict[int, Tuple[EthernetFrame, int]] = {}
        self._next_buffer_id = 1
        self._next_xid = 1
        #: diagnostics
        self.packet_ins = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0
        self.buffer_overflows = 0
        # ---- switch-side controller liveness (off unless enable_liveness()
        # is called: a disabled probe schedules nothing and draws nothing)
        self.controller_alive = True
        self.controller_outages_detected = 0
        self._liveness_interval_s: Optional[float] = None
        self._liveness_miss_limit = 3
        self._echo_outstanding = 0
        self._liveness_handle: Optional[Any] = None

    # -------------------------------------------------------------- control

    def connect_controller(self, channel: ControlChannel, controller: Any) -> None:
        """Bind this switch to a controller through ``channel``."""
        self.channel = channel
        channel.bind(self, controller)

    def _alloc_xid(self) -> int:
        xid = self._next_xid
        self._next_xid += 1
        return xid

    # ------------------------------------------------------------- liveness

    def enable_liveness(self, interval_s: float = 1.0, miss_limit: int = 3) -> None:
        """Probe the controller with EchoRequests every ``interval_s``
        simulated seconds; after ``miss_limit`` unanswered probes the
        controller is considered down (``controller_alive`` False). Any
        message from the controller — echo reply or otherwise — proves
        liveness and resets the miss count.

        Off by default: an un-enabled switch schedules no probe events, so
        existing runs stay bit-identical."""
        if interval_s <= 0:
            raise ValueError("liveness interval must be positive")
        if miss_limit < 1:
            raise ValueError("miss limit must be >= 1")
        self._liveness_interval_s = interval_s
        self._liveness_miss_limit = miss_limit
        if self._liveness_handle is None:
            self._liveness_handle = self.sim.schedule(interval_s, self._liveness_tick)

    def _liveness_tick(self) -> None:
        assert self._liveness_interval_s is not None
        self._liveness_handle = self.sim.schedule(self._liveness_interval_s,
                                                  self._liveness_tick)
        if self._echo_outstanding >= self._liveness_miss_limit and self.controller_alive:
            self.controller_alive = False
            self.controller_outages_detected += 1
            if self.sim.trace.enabled:
                self.sim.trace.emit(self.sim.now, "of", "controller-down",
                                    {"switch": self.name,
                                     "missed": self._echo_outstanding})
        if self.channel is not None:
            self._echo_outstanding += 1
            self.channel.to_controller(EchoRequest(payload=self.dpid,
                                                   xid=self._alloc_xid()))

    def _note_controller_liveness(self) -> None:
        """Any controller message resets the probe miss count."""
        self._echo_outstanding = 0
        if not self.controller_alive:
            self.controller_alive = True
            if self.sim.trace.enabled:
                self.sim.trace.emit(self.sim.now, "of", "controller-up",
                                    {"switch": self.name})

    # ------------------------------------------------------------ data path

    def on_frame(self, in_port: int, frame: EthernetFrame) -> None:
        fields = extract_fields(frame, in_port)
        entry = self.table.lookup(fields)
        if entry is None:
            # No table-miss entry installed: OF 1.3 default-drops.
            self.packets_dropped += 1
            if self.sim.trace.enabled:
                self.sim.trace.emit(self.sim.now, "of", "drop-no-match",
                                    {"switch": self.name, "pkt": frame.describe()})
            return
        entry.touch(self.sim.now, frame.wire_bytes)
        self._execute(entry.program, frame, in_port, fields)

    def _execute(self, program: ActionProgram, frame: EthernetFrame, in_port: int,
                 fields: Optional[FieldDict] = None) -> None:
        """Run a compiled action program on ``frame``: each step's writes
        are one flat rewrite of the frame as rewritten so far, and a
        physical output port is one scheduled transmit. ``fields`` is the
        frame's field dict when the caller already extracted it; a
        packet-in of the unrewritten frame then reuses it."""
        steps = program.steps
        if not steps:
            self.packets_dropped += 1  # no output action == drop
            return
        current = frame
        for writes, port in steps:
            if writes is not None:
                current = current.rewrite_headers(writes)
            if port < OFPP_IN_PORT:
                self.packets_forwarded += 1
                self.sim.schedule(self.forwarding_delay_s, self.transmit, port, current)
            else:
                self._output(current, port, in_port, fields if current is frame else None)

    def _output(self, frame: EthernetFrame, port: int, in_port: int,
                fields: Optional[FieldDict]) -> None:
        """An output to a reserved port."""
        if port == OFPP_CONTROLLER:
            self._send_packet_in(frame, in_port, OFPR_ACTION, fields)
            return
        if port in (OFPP_FLOOD, OFPP_ALL):
            for port_no in self.port_numbers:
                if port_no != in_port or port == OFPP_ALL:
                    self.sim.schedule(self.forwarding_delay_s, self.transmit, port_no, frame)
            self.packets_forwarded += 1
            return
        if port == OFPP_IN_PORT:
            self.packets_forwarded += 1
            self.sim.schedule(self.forwarding_delay_s, self.transmit, in_port, frame)
            return
        # OFPP_ANY and the reserved ports this datapath does not implement
        self.packets_dropped += 1
        if self.sim.trace.enabled:
            self.sim.trace.emit(self.sim.now, "of", "drop-reserved-port",
                                {"switch": self.name, "port": port,
                                 "pkt": frame.describe()})

    # ------------------------------------------------------------ packet-in

    def _send_packet_in(self, frame: EthernetFrame, in_port: int, reason: int,
                        fields: Optional[FieldDict] = None) -> None:
        if self.channel is None:
            self.packets_dropped += 1
            return
        self.packet_ins += 1
        if fields is None:
            fields = extract_fields(frame, in_port)
        if len(self._buffer) < self.buffer_capacity:
            buffer_id = self._next_buffer_id
            self._next_buffer_id += 1
            self._buffer[buffer_id] = (frame, in_port)
            message = PacketIn(buffer_id=buffer_id, reason=reason, in_port=in_port,
                               frame=frame, fields=fields, xid=self._alloc_xid())
        else:
            self.buffer_overflows += 1
            message = PacketIn(buffer_id=OFP_NO_BUFFER, reason=reason, in_port=in_port,
                               frame=frame, fields=fields, xid=self._alloc_xid())
        if self.sim.trace.enabled:
            self.sim.trace.emit(self.sim.now, "of", "packet-in",
                                {"switch": self.name, "buffer": message.buffer_id,
                                 "pkt": frame.describe()})
        self.channel.to_controller(message)

    @property
    def buffered_count(self) -> int:
        return len(self._buffer)

    # --------------------------------------------------- controller messages

    def on_controller_message(self, message: Message) -> None:
        self._note_controller_liveness()
        if isinstance(message, FlowMod):
            self._handle_flow_mod(message)
        elif isinstance(message, PacketOut):
            self._handle_packet_out(message)
        elif isinstance(message, FlowStatsRequest):
            reply = FlowStatsReply(stats=[s for s in self.table.stats()
                                          if message.match.covers(s["match"])],
                                   xid=message.xid)
            self.channel.to_controller(reply)  # type: ignore[union-attr]
        elif isinstance(message, EchoRequest):
            self.channel.to_controller(EchoReply(payload=message.payload, xid=message.xid))  # type: ignore[union-attr]
        elif isinstance(message, EchoReply):
            pass  # our own probe answered; liveness already noted above
        elif isinstance(message, BarrierRequest):
            self.channel.to_controller(BarrierReply(xid=message.xid))  # type: ignore[union-attr]
        else:  # pragma: no cover - unknown message types ignored like OVS
            self.sim.trace.emit(self.sim.now, "of", "unknown-message",
                                {"switch": self.name, "type": type(message).__name__})

    def _handle_flow_mod(self, message: FlowMod) -> None:
        if message.command in (OFPFC_DELETE, OFPFC_DELETE_STRICT):
            self.table.delete(message.match, strict=message.command == OFPFC_DELETE_STRICT,
                              priority=message.priority if message.command == OFPFC_DELETE_STRICT else None,
                              cookie=message.cookie or None)
            return
        if message.command not in (OFPFC_ADD, OFPFC_MODIFY):
            return
        entry = FlowEntry(
            match=message.match,
            priority=message.priority,
            actions=message.actions,
            idle_timeout=message.idle_timeout,
            hard_timeout=message.hard_timeout,
            cookie=message.cookie,
            flags=message.flags,
            now=self.sim.now,
        )
        self.table.install(entry)
        if self.sim.trace.enabled:
            self.sim.trace.emit(self.sim.now, "of", "flow-mod",
                                {"switch": self.name, "match": repr(message.match),
                                 "priority": message.priority})
        if message.buffer_id != OFP_NO_BUFFER:
            buffered = self._buffer.pop(message.buffer_id, None)
            if buffered is not None:
                frame, in_port = buffered
                # Spec: apply the new entry's actions to the buffered packet.
                entry.touch(self.sim.now, frame.wire_bytes)
                self._execute(entry.program, frame, in_port)

    def _handle_packet_out(self, message: PacketOut) -> None:
        if message.buffer_id != OFP_NO_BUFFER:
            buffered = self._buffer.pop(message.buffer_id, None)
            if buffered is None:
                return  # stale buffer id (already released)
            frame, in_port = buffered
        else:
            if message.frame is None:
                return
            frame, in_port = message.frame, message.in_port
        self._execute(ActionProgram(message.actions), frame, in_port)

    def _flow_removed(self, entry: FlowEntry, reason: int) -> None:
        if self.channel is None:
            return
        self.channel.to_controller(FlowRemoved(
            match=entry.match,
            priority=entry.priority,
            reason=reason,
            cookie=entry.cookie,
            duration=entry.duration,
            packet_count=entry.packet_count,
            byte_count=entry.byte_count,
            idle_timeout=entry.idle_timeout,
            xid=self._alloc_xid(),
        ))

    # ---------------------------------------------------------------- stats

    def stats(self) -> Dict[str, Any]:
        """Datapath diagnostics (counters only; flow stats live on the table)."""
        return {
            "packet_ins": self.packet_ins,
            "packets_forwarded": self.packets_forwarded,
            "packets_dropped": self.packets_dropped,
            "buffer_overflows": self.buffer_overflows,
            "table_lookups": self.table.lookups,
            "table_hits": self.table.hits,
            "flows": len(self.table),
            "controller_alive": self.controller_alive,
            "controller_outages_detected": self.controller_outages_detected,
        }

    # -------------------------------------------------------------- helpers

    def install_table_miss(self) -> None:
        """Install the standard priority-0 send-to-controller entry."""
        from repro.openflow.match import Match

        entry = FlowEntry(match=Match(), priority=0,
                          actions=[OutputAction(OFPP_CONTROLLER)], now=self.sim.now)
        self.table.install(entry)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OpenFlowSwitch {self.name} dpid={self.dpid} flows={len(self.table)}>"

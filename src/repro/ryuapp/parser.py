"""``ofproto`` / ``ofproto_parser`` façades in the shape of Ryu's OF 1.3
modules, mapped onto :mod:`repro.openflow` objects.

The transparent-edge controller code uses these exactly as it would with
Ryu, e.g.::

    parser = datapath.ofproto_parser
    ofp = datapath.ofproto
    match = parser.OFPMatch(eth_type=0x0800, ipv4_dst=service.ip, tcp_dst=service.port)
    actions = [parser.OFPActionSetField(ipv4_dst=instance.ip),
               parser.OFPActionSetField(eth_dst=instance.mac),
               parser.OFPActionOutput(instance.port_no)]
    datapath.send_msg(parser.OFPFlowMod(datapath, match=match, priority=10,
                                        actions=actions, idle_timeout=15,
                                        buffer_id=msg.buffer_id))
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, List, Optional

from repro.openflow import constants as _c
from repro.openflow.actions import Action, OutputAction, SetFieldAction
from repro.openflow.match import Match
from repro.openflow.messages import BarrierRequest, FlowMod, FlowStatsRequest, PacketOut

#: Constants namespace, mirroring ``ryu.ofproto.ofproto_v1_3``.
ofproto_v1_3 = SimpleNamespace(
    OFPP_CONTROLLER=_c.OFPP_CONTROLLER,
    OFPP_FLOOD=_c.OFPP_FLOOD,
    OFPP_IN_PORT=_c.OFPP_IN_PORT,
    OFPP_ALL=_c.OFPP_ALL,
    OFPP_ANY=_c.OFPP_ANY,
    OFP_NO_BUFFER=_c.OFP_NO_BUFFER,
    OFPR_NO_MATCH=_c.OFPR_NO_MATCH,
    OFPR_ACTION=_c.OFPR_ACTION,
    OFPRR_IDLE_TIMEOUT=_c.OFPRR_IDLE_TIMEOUT,
    OFPRR_HARD_TIMEOUT=_c.OFPRR_HARD_TIMEOUT,
    OFPRR_DELETE=_c.OFPRR_DELETE,
    OFPFF_SEND_FLOW_REM=_c.OFPFF_SEND_FLOW_REM,
    OFPFC_ADD=_c.OFPFC_ADD,
    OFPFC_MODIFY=_c.OFPFC_MODIFY,
    OFPFC_DELETE=_c.OFPFC_DELETE,
    OFPFC_DELETE_STRICT=_c.OFPFC_DELETE_STRICT,
)


class _Parser:
    """Constructor namespace, mirroring ``ryu.ofproto.ofproto_v1_3_parser``."""

    @staticmethod
    def OFPMatch(**kwargs: Any) -> Match:
        return Match(**kwargs)

    @staticmethod
    def OFPActionOutput(port: int, max_len: int = 0) -> OutputAction:
        return OutputAction(port)

    @staticmethod
    def OFPActionSetField(**kwargs: Any) -> SetFieldAction:
        if len(kwargs) != 1:
            raise ValueError("OFPActionSetField takes exactly one field=value")
        (field, value), = kwargs.items()
        return SetFieldAction(field, value)

    @staticmethod
    def OFPFlowMod(
        datapath: Any,
        match: Optional[Match] = None,
        priority: int = 1,
        actions: Optional[List[Action]] = None,
        command: int = _c.OFPFC_ADD,
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
        cookie: int = 0,
        flags: int = 0,
        buffer_id: int = _c.OFP_NO_BUFFER,
    ) -> FlowMod:
        return FlowMod(
            match=match if match is not None else Match(),
            priority=priority,
            actions=list(actions) if actions else [],
            command=command,
            idle_timeout=idle_timeout,
            hard_timeout=hard_timeout,
            cookie=cookie,
            flags=flags,
            buffer_id=buffer_id,
        )

    @staticmethod
    def OFPPacketOut(
        datapath: Any,
        buffer_id: int = _c.OFP_NO_BUFFER,
        in_port: int = 0,
        actions: Optional[List[Action]] = None,
        data: Any = None,
    ) -> PacketOut:
        return PacketOut(
            buffer_id=buffer_id,
            in_port=in_port,
            actions=list(actions) if actions else [],
            frame=data,
        )

    @staticmethod
    def OFPFlowStatsRequest(datapath: Any, match: Optional[Match] = None) -> FlowStatsRequest:
        return FlowStatsRequest(match=match if match is not None else Match())

    @staticmethod
    def OFPBarrierRequest(datapath: Any) -> BarrierRequest:
        return BarrierRequest()


ofproto_v1_3_parser = _Parser()

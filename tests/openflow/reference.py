"""Reference implementations the differential tests compare against.

Each one is the plain, slow form of a hot-path structure in
``repro.openflow``: a flow-table lookup as a linear scan of the table in
priority order, and an action list interpreted one ``dataclasses.replace``
chain per set-field. They touch no counter, so calling one never perturbs
what the code under test reports.
"""

import dataclasses
from typing import Any, List, Optional, Sequence, Tuple

from repro.netsim.packet import EthernetFrame, TCPSegment, UDPDatagram
from repro.openflow.actions import Action, OutputAction, SetFieldAction
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import FieldDict


def lookup_linear(table: FlowTable, fields: FieldDict) -> Optional[FlowEntry]:
    """The first entry in table order whose match holds for ``fields``:
    the answer ``FlowTable.lookup`` must give, found by scanning every rule
    ahead of it. Each rule's exact ``ipv4_dst``/``ipv4_src`` is compared
    first, so a rule the index would never visit costs one comparison."""
    pkt_dst = fields.get("ipv4_dst")
    pkt_src = fields.get("ipv4_src")
    for entry in table.entries:
        fast_src, fast_dst = entry.bucket_key
        if fast_dst is not None and fast_dst != pkt_dst:
            continue
        if fast_src is not None and fast_src != pkt_src:
            continue
        if entry.match.matches(fields):
            return entry
    return None


def _rewrite_reference(frame: EthernetFrame, field: str, value: Any) -> EthernetFrame:
    if field == "eth_src":
        return dataclasses.replace(frame, src=value)
    if field == "eth_dst":
        return dataclasses.replace(frame, dst=value)

    packet = frame.ipv4
    if packet is None:
        # Set-field on a non-IP frame: no-op (matches OF behaviour where the
        # prerequisite fields are absent).
        return frame

    if field == "ipv4_src":
        return dataclasses.replace(frame, payload=dataclasses.replace(packet, src=value))
    if field == "ipv4_dst":
        return dataclasses.replace(frame, payload=dataclasses.replace(packet, dst=value))

    l4 = packet.payload
    if field in ("tcp_src", "tcp_dst") and isinstance(l4, TCPSegment):
        kwargs = {"src_port": value} if field == "tcp_src" else {"dst_port": value}
        new_l4 = dataclasses.replace(l4, **kwargs)
    elif field in ("udp_src", "udp_dst") and isinstance(l4, UDPDatagram):
        kwargs = {"src_port": value} if field == "udp_src" else {"dst_port": value}
        new_l4 = dataclasses.replace(l4, **kwargs)
    else:
        return frame
    return dataclasses.replace(frame, payload=dataclasses.replace(packet, payload=new_l4))


def apply_actions_multi_reference(
    frame: EthernetFrame, actions: Sequence[Action]
) -> List[Tuple[EthernetFrame, int]]:
    """``apply_actions_multi`` uncompiled: sequential per-field rewrites."""
    outputs: List[Tuple[EthernetFrame, int]] = []
    current = frame
    for action in actions:
        if isinstance(action, SetFieldAction):
            current = _rewrite_reference(current, action.field, action.value)
        elif isinstance(action, OutputAction):
            outputs.append((current, action.port))
        else:  # pragma: no cover
            raise TypeError(f"unsupported action {action!r}")
    return outputs

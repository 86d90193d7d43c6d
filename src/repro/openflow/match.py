"""OpenFlow match structures and packet-field extraction.

A :class:`Match` is a set of ``field == value`` (or masked ``field & mask ==
value & mask``) conditions over the flat field dictionary produced by
:func:`extract_fields`. An empty match is the wildcard (matches everything),
as in OpenFlow.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

from repro.netsim.addresses import MAC, IPv4
from repro.netsim.packet import (
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    ArpPacket,
    EthernetFrame,
    IPv4Packet,
    TCPSegment,
    UDPDatagram,
)
from repro.openflow.constants import FIELDS

FieldDict = Dict[str, Any]


def extract_fields(frame: EthernetFrame, in_port: int) -> FieldDict:
    """Flatten a frame into the OpenFlow match-field dictionary.

    Only fields present in the packet appear as keys (e.g. no ``tcp_src``
    for an ARP), mirroring OXM prerequisite semantics: a match on an absent
    field never matches.
    """
    fields: FieldDict = {
        "in_port": in_port,
        "eth_src": frame.src,
        "eth_dst": frame.dst,
        "eth_type": frame.ethertype,
    }
    payload = frame.payload
    if type(payload) is ArpPacket:
        fields["arp_op"] = int(payload.op)
        fields["arp_spa"] = payload.sender_ip
        fields["arp_tpa"] = payload.target_ip
    elif type(payload) is IPv4Packet:
        fields["ipv4_src"] = payload.src
        fields["ipv4_dst"] = payload.dst
        fields["ip_proto"] = payload.proto
        if payload.proto == IP_PROTO_TCP:
            seg: TCPSegment = payload.payload  # type: ignore[assignment]
            fields["tcp_src"] = seg.src_port
            fields["tcp_dst"] = seg.dst_port
        elif payload.proto == IP_PROTO_UDP:
            dg: UDPDatagram = payload.payload  # type: ignore[assignment]
            fields["udp_src"] = dg.src_port
            fields["udp_dst"] = dg.dst_port
    return fields


def _canonical(value: str) -> Any:
    """Normalise a str match value so '10.0.0.1' == IPv4('10.0.0.1') etc."""
    if value.count(".") == 3:
        return IPv4(value)
    if ":" in value:
        return MAC(value)
    return value


class Match:
    """An immutable set of match conditions.

    Construct Ryu-style with keyword arguments::

        Match(eth_type=0x0800, ipv4_dst="1.2.3.4", tcp_dst=80)
        Match(ipv4_src=("10.0.0.0", 24))   # masked: (network, prefix_len)
    """

    __slots__ = ("_exact", "_masked", "_hash")

    def __init__(self, **conditions: Any) -> None:
        exact: Dict[str, Any] = {}
        masked: Dict[str, Tuple[IPv4, int]] = {}
        for field, value in conditions.items():
            if field not in FIELDS:
                raise ValueError(f"unknown match field {field!r}")
            kind = type(value)
            if kind is tuple:
                if field not in ("ipv4_src", "ipv4_dst", "arp_spa", "arp_tpa"):
                    raise ValueError(f"masked match unsupported for {field!r}")
                network, prefix_len = value
                masked[field] = (IPv4(network), int(prefix_len))
            elif kind is str:
                exact[field] = _canonical(value)
            else:
                exact[field] = value
        self._exact = exact
        self._masked = masked
        # Field names are unique, so sorting the (name, ...) tuples orders by
        # name alone, exactly as a key function on the name would.
        self._hash = hash((tuple(sorted(exact.items())),
                           tuple(sorted([(k, net, plen) for k, (net, plen) in masked.items()]))
                           if masked else ()))

    # ------------------------------------------------------------ predicates

    def exact_value(self, field: str) -> Optional[Any]:
        """The exact (unmasked) condition on ``field``, or None.

        Used by the flow table's fast-reject prefilter: comparing one or two
        cached exact values eliminates most entries without running the full
        :meth:`matches` loop (profiled hot path — see DESIGN.md §7).
        """
        return self._exact.get(field)

    def matches(self, fields: FieldDict) -> bool:
        """True when every condition holds for the packet's ``fields``."""
        for field, expected in self._exact.items():
            actual = fields.get(field)
            if actual is None or actual != expected:
                return False
        for field, (network, prefix_len) in self._masked.items():
            actual = fields.get(field)
            if actual is None or not actual.in_subnet(network, prefix_len):
                return False
        return True

    def covers(self, other: "Match") -> bool:
        """True when every packet matching ``other`` also matches ``self``
        (used for OFPFC_DELETE non-strict semantics, conservatively)."""
        for field, expected in self._exact.items():
            if other._exact.get(field) != expected:
                return False
        for field, (network, prefix_len) in self._masked.items():
            o_exact = other._exact.get(field)
            if o_exact is not None:
                if not o_exact.in_subnet(network, prefix_len):
                    return False
                continue
            o_masked = other._masked.get(field)
            if o_masked is None:
                return False
            o_net, o_len = o_masked
            if o_len < prefix_len or not o_net.in_subnet(network, prefix_len):
                return False
        return True

    # ---------------------------------------------------------------- dunder

    @property
    def conditions(self) -> Dict[str, Any]:
        out: Dict[str, Any] = dict(self._exact)
        out.update({k: v for k, v in self._masked.items()})
        return out

    def items(self) -> Iterator[Tuple[str, Any]]:
        return iter(self.conditions.items())

    def __len__(self) -> int:
        return len(self._exact) + len(self._masked)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Match)
                and self._exact == other._exact
                and self._masked == other._masked)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = [f"{k}={v}" for k, v in self._exact.items()]
        parts += [f"{k}={net}/{plen}" for k, (net, plen) in self._masked.items()]
        return f"Match({', '.join(parts)})" if parts else "Match(*)"

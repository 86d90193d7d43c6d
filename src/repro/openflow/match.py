"""OpenFlow match structures and packet-field extraction.

A :class:`Match` is a set of ``field == value`` (or masked ``field & mask ==
value & mask``) conditions over the flat field dictionary produced by
:func:`extract_fields`. An empty match is the wildcard (matches everything),
as in OpenFlow.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

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

    __slots__ = ("_exact_items", "_masked_items", "_hash")

    def __init__(self, **conditions: Any) -> None:
        exact: Dict[str, Any] = {}
        masked: List[Tuple[str, IPv4, int]] = []
        for field, value in conditions.items():
            if field not in FIELDS:
                raise ValueError(f"unknown match field {field!r}")
            kind = type(value)
            if kind is tuple:
                if field not in ("ipv4_src", "ipv4_dst", "arp_spa", "arp_tpa"):
                    raise ValueError(f"masked match unsupported for {field!r}")
                network, prefix_len = value
                masked.append((field, IPv4(network), int(prefix_len)))
            elif kind is str:
                exact[field] = _canonical(value)
            else:
                exact[field] = value
        # The only copy of the conditions, in the order given: ``(field,
        # value)`` and ``(field, network, prefix_len)`` tuples. The
        # per-packet :meth:`matches` loops over them.
        self._exact_items = tuple(exact.items())
        self._masked_items = tuple(masked)
        # Hashed in field-name order, so that the order given does not
        # matter. Field names are unique, so sorting the tuples orders them
        # by name alone.
        self._hash = hash((tuple(sorted(self._exact_items)),
                           tuple(sorted(masked)) if masked else ()))

    # ------------------------------------------------------------ predicates

    def exact_value(self, field: str) -> Optional[Any]:
        """The exact (unmasked) condition on ``field``, or None.

        A flow entry's exact ``ipv4_src``/``ipv4_dst`` values are its key in
        the flow table's lookup index, so a lookup runs the full
        :meth:`matches` loop only on entries whose key fits the packet.
        """
        for name, value in self._exact_items:
            if name == field:
                return value
        return None

    def _masked_value(self, field: str) -> Optional[Tuple[IPv4, int]]:
        """The masked condition on ``field`` as ``(network, prefix_len)``, or None."""
        for name, network, prefix_len in self._masked_items:
            if name == field:
                return network, prefix_len
        return None

    def matches(self, fields: FieldDict) -> bool:
        """True when every condition holds for the packet's ``fields``."""
        for field, expected in self._exact_items:
            if field not in fields or fields[field] != expected:
                return False
        for field, network, prefix_len in self._masked_items:
            if field not in fields or not fields[field].in_subnet(network, prefix_len):
                return False
        return True

    def covers(self, other: "Match") -> bool:
        """True when every packet matching ``other`` also matches ``self``
        (used for OFPFC_DELETE non-strict semantics, conservatively)."""
        for field, expected in self._exact_items:
            if other.exact_value(field) != expected:
                return False
        for field, network, prefix_len in self._masked_items:
            o_exact = other.exact_value(field)
            if o_exact is not None:
                if not o_exact.in_subnet(network, prefix_len):
                    return False
                continue
            o_masked = other._masked_value(field)
            if o_masked is None:
                return False
            o_net, o_len = o_masked
            if o_len < prefix_len or not o_net.in_subnet(network, prefix_len):
                return False
        return True

    # ---------------------------------------------------------------- dunder

    @property
    def conditions(self) -> Dict[str, Any]:
        out: Dict[str, Any] = dict(self._exact_items)
        out.update({k: (net, plen) for k, net, plen in self._masked_items})
        return out

    def items(self) -> Iterator[Tuple[str, Any]]:
        return iter(self.conditions.items())

    def __len__(self) -> int:
        return len(self._exact_items) + len(self._masked_items)

    def __eq__(self, other: object) -> bool:
        # Field names are unique, so two matches are equal when they hold
        # the same conditions, in whatever order they were given.
        return (isinstance(other, Match)
                and self._hash == other._hash
                and frozenset(self._exact_items) == frozenset(other._exact_items)
                and frozenset(self._masked_items) == frozenset(other._masked_items))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = [f"{k}={v}" for k, v in self._exact_items]
        parts += [f"{k}={net}/{plen}" for k, net, plen in self._masked_items]
        return f"Match({', '.join(parts)})" if parts else "Match(*)"

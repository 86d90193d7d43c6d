"""Typed packet model: Ethernet / ARP / IPv4 / TCP / UDP + HTTP payloads.

Packets are plain slotted dataclasses, layered by composition
(``EthernetFrame.payload`` is an :class:`ArpPacket` or :class:`IPv4Packet`,
and so on). The OpenFlow rewrite actions produce *copies*, never mutate in
place — a frame in flight may be referenced from several queues (switch
buffer, controller, trace log). The runtime sanitizer
(:mod:`repro.analysis.sanitizer`) checks this by making fields write-once.

:meth:`EthernetFrame.rewrite_headers` applies one row of set-field writes
in one call, bypassing ``__init__``/``dataclasses.replace`` —
``object.__new__`` plus plain slot stores, inline for every layer. On the
forwarding hot path a multi-field NAT rewrite then costs one new object per
*mutated* layer instead of a full ``replace()`` reconstruction per field.

Application payloads are Python objects carried by value with an explicit
byte size; the size (plus per-layer header overhead) drives link
serialization delay, which is what makes e.g. the 83 KiB ResNet POST body
slower than a 62-byte GET.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import enum
from typing import Any, Optional, Tuple, Union

from repro.netsim.addresses import MAC, IPv4

ETH_TYPE_IP = 0x0800
ETH_TYPE_ARP = 0x0806

IP_PROTO_TCP = 6
IP_PROTO_UDP = 17

ETH_HEADER_BYTES = 18  # header + FCS
ARP_BODY_BYTES = 28
IP_HEADER_BYTES = 20
TCP_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8

_ETH_IP_TCP_HEADER_BYTES = ETH_HEADER_BYTES + IP_HEADER_BYTES + TCP_HEADER_BYTES

#: Maximum TCP payload per segment (standard Ethernet MSS).
TCP_MSS = 1460

_new = object.__new__


def _reduce_fields(layer: Any) -> Tuple[Any, ...]:
    # Rebuild through the constructor: a slotted dataclass that is not
    # frozen has no ``__getstate__``, which pickle protocols 0 and 1 need.
    return (type(layer), tuple(getattr(layer, name) for name in layer.__slots__))


class TCPFlags(enum.IntFlag):
    """The TCP flag bits the simulation models."""

    NONE = 0
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10


#: The combinations the stacks emit, built once: ``|`` on two members goes
#: through the enum machinery on every evaluation.
TCP_SYN_ACK = TCPFlags.SYN | TCPFlags.ACK
TCP_PSH_ACK = TCPFlags.PSH | TCPFlags.ACK
TCP_FIN_ACK = TCPFlags.FIN | TCPFlags.ACK
TCP_RST_ACK = TCPFlags.RST | TCPFlags.ACK


@dataclass(slots=True, unsafe_hash=True)
class HTTPRequest:
    """An HTTP request as carried by the application layer.

    ``body_bytes`` is the payload size used for serialization delay (e.g. the
    83 KiB cat picture POSTed to the ResNet service); ``body`` may carry an
    arbitrary Python object for the server handler to inspect.
    """

    __reduce__ = _reduce_fields
    method: str = "GET"
    path: str = "/"
    host: str = ""
    body_bytes: int = 0
    body: Any = None
    headers_bytes: int = 120  # typical curl request header size

    @property
    def wire_bytes(self) -> int:
        return self.headers_bytes + self.body_bytes


@dataclass(slots=True, unsafe_hash=True)
class HTTPResponse:
    """An HTTP response."""

    __reduce__ = _reduce_fields
    status: int = 200
    body_bytes: int = 0
    body: Any = None
    headers_bytes: int = 160

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def wire_bytes(self) -> int:
        return self.headers_bytes + self.body_bytes


@dataclass(slots=True, unsafe_hash=True)
class TCPSegment:
    """One TCP segment.

    ``payload`` is an application message (or a reassembly fragment marker),
    ``payload_bytes`` its on-wire size contribution for this segment.
    """

    __reduce__ = _reduce_fields
    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: TCPFlags = TCPFlags.NONE
    payload: Any = None
    payload_bytes: int = 0
    #: Marks the final fragment of a multi-segment application message.
    last_fragment: bool = True

    @property
    def wire_bytes(self) -> int:
        return TCP_HEADER_BYTES + self.payload_bytes

    def has(self, flag: TCPFlags) -> bool:
        # Plain-int AND: ``IntFlag.__and__`` would build a member per test.
        return int(self.flags) & int(flag) != 0


@dataclass(slots=True, unsafe_hash=True)
class UDPDatagram:
    """One UDP datagram."""

    __reduce__ = _reduce_fields
    src_port: int
    dst_port: int
    payload: Any = None
    payload_bytes: int = 0

    @property
    def wire_bytes(self) -> int:
        return UDP_HEADER_BYTES + self.payload_bytes


@dataclass(slots=True, unsafe_hash=True)
class IPv4Packet:
    """An IPv4 packet carrying TCP or UDP."""

    __reduce__ = _reduce_fields
    src: IPv4
    dst: IPv4
    proto: int
    payload: Union[TCPSegment, UDPDatagram]
    ttl: int = 64

    @property
    def wire_bytes(self) -> int:
        return IP_HEADER_BYTES + self.payload.wire_bytes


class ArpOp(enum.IntEnum):
    REQUEST = 1
    REPLY = 2


@dataclass(slots=True, unsafe_hash=True)
class ArpPacket:
    """An ARP request or reply."""

    __reduce__ = _reduce_fields
    op: ArpOp
    sender_mac: MAC
    sender_ip: IPv4
    target_mac: MAC
    target_ip: IPv4

    @property
    def wire_bytes(self) -> int:
        return ARP_BODY_BYTES


@dataclass(slots=True, unsafe_hash=True)
class EthernetFrame:
    """The layer-2 frame that actually traverses links.

    ``wire_bytes`` is computed once, when the frame is built: every link hop
    and every switch touch reads it as a plain attribute. The hand-written
    ``__init__`` stores it without a ``__post_init__`` call,
    :meth:`rewrite_headers` copies it, and everything that builds a frame
    from its fields — ``dataclasses.replace``, ``copy`` and pickle (via
    ``__reduce__``) — recomputes it.
    """

    src: MAC
    dst: MAC
    ethertype: int
    payload: Union[ArpPacket, IPv4Packet]
    wire_bytes: int = field(init=False, compare=False, repr=False)

    def __init__(self, src: MAC, dst: MAC, ethertype: int,
                 payload: Union[ArpPacket, IPv4Packet]) -> None:
        self.src = src
        self.dst = dst
        self.ethertype = ethertype
        self.payload = payload
        # Nearly every frame is TCP over IPv4: size that shape inline
        # instead of one call per layer.
        if type(payload) is IPv4Packet and type(payload.payload) is TCPSegment:
            self.wire_bytes = _ETH_IP_TCP_HEADER_BYTES + payload.payload.payload_bytes
        else:
            self.wire_bytes = ETH_HEADER_BYTES + payload.wire_bytes

    def __reduce__(self) -> tuple:
        return (EthernetFrame, (self.src, self.dst, self.ethertype, self.payload))

    def rewrite_headers(self, writes: Tuple[Any, ...]) -> "EthernetFrame":
        """One row of OpenFlow set-field writes as one copy per changed layer.

        ``writes`` is a row of a compiled action program:
        ``(eth_src, eth_dst, ipv4_src, ipv4_dst, tcp_src, tcp_dst, udp_src,
        udp_dst)``, ``None`` leaving a field as it is. OpenFlow prerequisite
        semantics apply per field: IPv4 writes are ignored on a non-IP
        frame, and the port pair is picked by the L4 class (``tcp_dst`` on a
        UDP datagram is a no-op while ``eth_dst`` in the same row still
        applies). Untouched layers are shared, the stored ``wire_bytes``
        carries over (only headers change), and a row with no applicable
        write returns ``self``.
        """
        eth_src, eth_dst, ipv4_src, ipv4_dst, tcp_src, tcp_dst, udp_src, udp_dst = writes
        payload = packet = self.payload
        if type(payload) is IPv4Packet:
            old_l4 = l4 = payload.payload
            if type(old_l4) is TCPSegment:
                if tcp_src is not None or tcp_dst is not None:
                    l4 = _new(TCPSegment)
                    l4.src_port = old_l4.src_port if tcp_src is None else tcp_src
                    l4.dst_port = old_l4.dst_port if tcp_dst is None else tcp_dst
                    l4.seq = old_l4.seq
                    l4.ack = old_l4.ack
                    l4.flags = old_l4.flags
                    l4.payload = old_l4.payload
                    l4.payload_bytes = old_l4.payload_bytes
                    l4.last_fragment = old_l4.last_fragment
            elif type(old_l4) is UDPDatagram:
                if udp_src is not None or udp_dst is not None:
                    l4 = _new(UDPDatagram)
                    l4.src_port = old_l4.src_port if udp_src is None else udp_src
                    l4.dst_port = old_l4.dst_port if udp_dst is None else udp_dst
                    l4.payload = old_l4.payload
                    l4.payload_bytes = old_l4.payload_bytes
            if ipv4_src is not None or ipv4_dst is not None or l4 is not old_l4:
                packet = _new(IPv4Packet)
                packet.src = payload.src if ipv4_src is None else ipv4_src
                packet.dst = payload.dst if ipv4_dst is None else ipv4_dst
                packet.proto = payload.proto
                packet.payload = l4
                packet.ttl = payload.ttl
        if packet is payload and eth_src is None and eth_dst is None:
            return self
        new = _new(EthernetFrame)
        new.src = self.src if eth_src is None else eth_src
        new.dst = self.dst if eth_dst is None else eth_dst
        new.ethertype = self.ethertype
        new.payload = packet
        new.wire_bytes = self.wire_bytes
        return new

    # ------------------------------------------------------- layer accessors

    @property
    def ipv4(self) -> Optional[IPv4Packet]:
        return self.payload if isinstance(self.payload, IPv4Packet) else None

    @property
    def arp(self) -> Optional[ArpPacket]:
        return self.payload if isinstance(self.payload, ArpPacket) else None

    @property
    def tcp(self) -> Optional[TCPSegment]:
        ipv4 = self.ipv4
        if ipv4 is not None and isinstance(ipv4.payload, TCPSegment):
            return ipv4.payload
        return None

    @property
    def udp(self) -> Optional[UDPDatagram]:
        ipv4 = self.ipv4
        if ipv4 is not None and isinstance(ipv4.payload, UDPDatagram):
            return ipv4.payload
        return None

    def describe(self) -> str:
        """Compact single-line rendering for traces and debugging."""
        if self.arp is not None:
            a = self.arp
            kind = "who-has" if a.op == ArpOp.REQUEST else "is-at"
            return f"ARP {kind} {a.target_ip} tell {a.sender_ip}"
        tcp = self.tcp
        if tcp is not None:
            ipv4 = self.ipv4
            assert ipv4 is not None
            flags = (tcp.flags.name or str(int(tcp.flags))) if tcp.flags else "-"
            return (
                f"TCP {ipv4.src}:{tcp.src_port} > {ipv4.dst}:{tcp.dst_port}"
                f" [{flags}] seq={tcp.seq} ack={tcp.ack} len={tcp.payload_bytes}"
            )
        udp = self.udp
        if udp is not None:
            ipv4 = self.ipv4
            assert ipv4 is not None
            return f"UDP {ipv4.src}:{udp.src_port} > {ipv4.dst}:{udp.dst_port} len={udp.payload_bytes}"
        return f"ETH {self.src} > {self.dst} type={self.ethertype:#06x}"

"""Typed packet model: Ethernet / ARP / IPv4 / TCP / UDP + HTTP payloads.

Packets are frozen, slotted dataclasses, layered by composition
(``EthernetFrame.payload`` is an :class:`ArpPacket` or :class:`IPv4Packet`,
and so on). The OpenFlow rewrite actions produce *copies*, never mutate in
place — a frame in flight may be referenced from several queues (switch
buffer, controller, trace log).

Each layer exposes a ``rewrite()`` helper that produces a copy with selected
header fields changed while bypassing ``__init__``/``dataclasses.replace`` —
``object.__new__`` plus direct slot stores (a frame given a new payload goes
through ``__init__``, which sizes it). On the forwarding hot path a
multi-field NAT rewrite then costs one new object per *mutated* layer
instead of a full ``replace()`` reconstruction per field.

Application payloads are Python objects carried by value with an explicit
byte size; the size (plus per-layer header overhead) drives link
serialization delay, which is what makes e.g. the 83 KiB ResNet POST body
slower than a 62-byte GET.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import enum
from typing import Any, Optional, Union

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
_set = object.__setattr__


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


@dataclass(frozen=True, slots=True)
class HTTPRequest:
    """An HTTP request as carried by the application layer.

    ``body_bytes`` is the payload size used for serialization delay (e.g. the
    83 KiB cat picture POSTed to the ResNet service); ``body`` may carry an
    arbitrary Python object for the server handler to inspect.
    """

    method: str = "GET"
    path: str = "/"
    host: str = ""
    body_bytes: int = 0
    body: Any = None
    headers_bytes: int = 120  # typical curl request header size

    @property
    def wire_bytes(self) -> int:
        return self.headers_bytes + self.body_bytes


@dataclass(frozen=True, slots=True)
class HTTPResponse:
    """An HTTP response."""

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


@dataclass(frozen=True, slots=True)
class TCPSegment:
    """One TCP segment.

    ``payload`` is an application message (or a reassembly fragment marker),
    ``payload_bytes`` its on-wire size contribution for this segment.
    """

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

    def rewrite(self, src_port: Optional[int] = None,
                dst_port: Optional[int] = None) -> "TCPSegment":
        """Copy with the given port(s) changed; other fields shared."""
        new = _new(TCPSegment)
        _set(new, "src_port", self.src_port if src_port is None else src_port)
        _set(new, "dst_port", self.dst_port if dst_port is None else dst_port)
        _set(new, "seq", self.seq)
        _set(new, "ack", self.ack)
        _set(new, "flags", self.flags)
        _set(new, "payload", self.payload)
        _set(new, "payload_bytes", self.payload_bytes)
        _set(new, "last_fragment", self.last_fragment)
        return new


@dataclass(frozen=True, slots=True)
class UDPDatagram:
    """One UDP datagram."""

    src_port: int
    dst_port: int
    payload: Any = None
    payload_bytes: int = 0

    @property
    def wire_bytes(self) -> int:
        return UDP_HEADER_BYTES + self.payload_bytes

    def rewrite(self, src_port: Optional[int] = None,
                dst_port: Optional[int] = None) -> "UDPDatagram":
        """Copy with the given port(s) changed; other fields shared."""
        new = _new(UDPDatagram)
        _set(new, "src_port", self.src_port if src_port is None else src_port)
        _set(new, "dst_port", self.dst_port if dst_port is None else dst_port)
        _set(new, "payload", self.payload)
        _set(new, "payload_bytes", self.payload_bytes)
        return new


@dataclass(frozen=True, slots=True)
class IPv4Packet:
    """An IPv4 packet carrying TCP or UDP."""

    src: IPv4
    dst: IPv4
    proto: int
    payload: Union[TCPSegment, UDPDatagram]
    ttl: int = 64

    @property
    def wire_bytes(self) -> int:
        return IP_HEADER_BYTES + self.payload.wire_bytes

    def rewrite(self, src: Optional[IPv4] = None, dst: Optional[IPv4] = None,
                payload: Optional[Union[TCPSegment, UDPDatagram]] = None,
                ttl: Optional[int] = None) -> "IPv4Packet":
        """Copy with the given header field(s)/payload changed."""
        new = _new(IPv4Packet)
        _set(new, "src", self.src if src is None else src)
        _set(new, "dst", self.dst if dst is None else dst)
        _set(new, "proto", self.proto)
        _set(new, "payload", self.payload if payload is None else payload)
        _set(new, "ttl", self.ttl if ttl is None else ttl)
        return new

    def decrement_ttl(self) -> "IPv4Packet":
        return self.rewrite(ttl=self.ttl - 1)


class ArpOp(enum.IntEnum):
    REQUEST = 1
    REPLY = 2


@dataclass(frozen=True, slots=True)
class ArpPacket:
    """An ARP request or reply."""

    op: ArpOp
    sender_mac: MAC
    sender_ip: IPv4
    target_mac: MAC
    target_ip: IPv4

    @property
    def wire_bytes(self) -> int:
        return ARP_BODY_BYTES


@dataclass(frozen=True, slots=True)
class EthernetFrame:
    """The layer-2 frame that actually traverses links.

    ``wire_bytes`` is computed once, when the frame is built: every link hop
    and every switch touch reads it as a plain attribute. The hand-written
    ``__init__`` stores it without a ``__post_init__`` call, header-only
    rewrites copy it, and everything that builds a frame from its fields —
    a payload-replacing :meth:`rewrite`, ``dataclasses.replace``, ``copy``
    and pickle (via ``__reduce__``) — recomputes it.
    """

    src: MAC
    dst: MAC
    ethertype: int
    payload: Union[ArpPacket, IPv4Packet]
    wire_bytes: int = field(init=False, compare=False, repr=False)

    def __init__(self, src: MAC, dst: MAC, ethertype: int,
                 payload: Union[ArpPacket, IPv4Packet]) -> None:
        _set(self, "src", src)
        _set(self, "dst", dst)
        _set(self, "ethertype", ethertype)
        _set(self, "payload", payload)
        # Nearly every frame is TCP over IPv4: size that shape inline
        # instead of one call per layer.
        if type(payload) is IPv4Packet and type(payload.payload) is TCPSegment:
            _set(self, "wire_bytes", _ETH_IP_TCP_HEADER_BYTES + payload.payload.payload_bytes)
        else:
            _set(self, "wire_bytes", ETH_HEADER_BYTES + payload.wire_bytes)

    def __reduce__(self) -> tuple:
        return (EthernetFrame, (self.src, self.dst, self.ethertype, self.payload))

    def rewrite(self, src: Optional[MAC] = None, dst: Optional[MAC] = None,
                payload: Optional[Union[ArpPacket, IPv4Packet]] = None,
                ) -> "EthernetFrame":
        """Copy with the given header field(s)/payload changed; a new
        payload is sized anew."""
        if payload is not None:
            return EthernetFrame(self.src if src is None else src,
                                 self.dst if dst is None else dst,
                                 self.ethertype, payload)
        return self._copy(src, dst, self.payload)

    def _copy(self, src: Optional[MAC], dst: Optional[MAC],
              payload: Union[ArpPacket, IPv4Packet]) -> "EthernetFrame":
        # Header-only: ``payload`` is this frame's or a header rewrite of
        # it, so the stored size carries over.
        new = _new(EthernetFrame)
        _set(new, "src", self.src if src is None else src)
        _set(new, "dst", self.dst if dst is None else dst)
        _set(new, "ethertype", self.ethertype)
        _set(new, "payload", payload)
        _set(new, "wire_bytes", self.wire_bytes)
        return new

    def rewrite_headers(self,
                        eth_src: Optional[MAC] = None,
                        eth_dst: Optional[MAC] = None,
                        ipv4_src: Optional[IPv4] = None,
                        ipv4_dst: Optional[IPv4] = None,
                        l4_src: Optional[int] = None,
                        l4_dst: Optional[int] = None) -> "EthernetFrame":
        """Fused multi-layer rewrite: copy each mutated layer exactly once.

        OpenFlow prerequisite semantics apply — IPv4 fields are ignored on a
        non-IP frame, port fields are ignored when the L4 payload is absent
        (an ARP frame has neither). A call with no effective changes returns
        ``self`` unchanged.
        """
        payload = self.payload
        new_payload: Optional[Union[ArpPacket, IPv4Packet]] = None
        if type(payload) is IPv4Packet:
            new_l4: Optional[Union[TCPSegment, UDPDatagram]] = None
            if l4_src is not None or l4_dst is not None:
                l4 = payload.payload
                if type(l4) is TCPSegment or type(l4) is UDPDatagram:
                    new_l4 = l4.rewrite(l4_src, l4_dst)
            if ipv4_src is not None or ipv4_dst is not None or new_l4 is not None:
                new_payload = payload.rewrite(ipv4_src, ipv4_dst, new_l4)
        if eth_src is None and eth_dst is None and new_payload is None:
            return self
        return self._copy(eth_src, eth_dst, payload if new_payload is None else new_payload)

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

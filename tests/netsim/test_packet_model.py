"""Unit tests for the packet model: sizes, accessors, rendering."""

import copy
import dataclasses
import pickle

import pytest

from repro.netsim import (
    ETH_TYPE_ARP,
    ETH_TYPE_IP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    EthernetFrame,
    HTTPRequest,
    HTTPResponse,
    IPv4Packet,
    TCPFlags,
    TCPSegment,
    UDPDatagram,
    ip,
    mac,
)
from repro.netsim.addresses import IPv4
from repro.netsim.packet import (
    ARP_BODY_BYTES,
    ETH_HEADER_BYTES,
    IP_HEADER_BYTES,
    TCP_HEADER_BYTES,
    TCP_MSS,
    UDP_HEADER_BYTES,
    ArpOp,
    ArpPacket,
)
from repro.simcore.domains.envelope import Envelope, decode_envelopes, encode_envelopes


def layered_wire_bytes(frame):
    """A frame's on-wire size summed layer by layer from the header
    constants — the reference the size stored on the frame must equal."""
    packet = frame.payload
    if isinstance(packet, ArpPacket):
        return ETH_HEADER_BYTES + ARP_BODY_BYTES
    l4 = packet.payload
    l4_header = TCP_HEADER_BYTES if isinstance(l4, TCPSegment) else UDP_HEADER_BYTES
    return ETH_HEADER_BYTES + IP_HEADER_BYTES + l4_header + l4.payload_bytes


def tcp_frame(payload_bytes=100, flags=TCPFlags.ACK):
    seg = TCPSegment(src_port=1234, dst_port=80, seq=7, ack=9, flags=flags,
                     payload_bytes=payload_bytes)
    pkt = IPv4Packet(src=ip("10.0.0.1"), dst=ip("10.0.0.2"),
                     proto=IP_PROTO_TCP, payload=seg)
    return EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_IP,
                         payload=pkt)


class TestWireSizes:
    def test_tcp_frame_size_composition(self):
        frame = tcp_frame(payload_bytes=100)
        assert frame.wire_bytes == (ETH_HEADER_BYTES + IP_HEADER_BYTES
                                    + TCP_HEADER_BYTES + 100)

    def test_udp_frame_size(self):
        dg = UDPDatagram(src_port=1, dst_port=53, payload_bytes=48)
        pkt = IPv4Packet(src=ip("1.1.1.1"), dst=ip("2.2.2.2"),
                         proto=IP_PROTO_UDP, payload=dg)
        frame = EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_IP,
                              payload=pkt)
        assert frame.wire_bytes == (ETH_HEADER_BYTES + IP_HEADER_BYTES
                                    + UDP_HEADER_BYTES + 48)

    def test_arp_frame_size(self):
        arp = ArpPacket(op=ArpOp.REQUEST, sender_mac=mac(1),
                        sender_ip=ip("1.1.1.1"), target_mac=mac(0),
                        target_ip=ip("1.1.1.2"))
        frame = EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_ARP,
                              payload=arp)
        assert frame.wire_bytes == ETH_HEADER_BYTES + ARP_BODY_BYTES

    def test_http_wire_bytes(self):
        request = HTTPRequest(method="POST", body_bytes=1000, headers_bytes=120)
        assert request.wire_bytes == 1120
        response = HTTPResponse(status=200, body_bytes=500, headers_bytes=160)
        assert response.wire_bytes == 660
        assert response.ok
        assert not HTTPResponse(status=503).ok

    def test_mss_value(self):
        assert TCP_MSS == 1460


def _size_frames():
    tcp = tcp_frame(payload_bytes=100)
    udp = EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_IP,
                        payload=IPv4Packet(src=ip("1.1.1.1"), dst=ip("2.2.2.2"),
                                           proto=IP_PROTO_UDP,
                                           payload=UDPDatagram(src_port=1, dst_port=53,
                                                               payload_bytes=48)))
    arp = EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_ARP,
                        payload=ArpPacket(op=ArpOp.REQUEST, sender_mac=mac(1),
                                          sender_ip=ip("1.1.1.1"), target_mac=mac(0),
                                          target_ip=ip("1.1.1.2")))
    return {"tcp": tcp, "udp": udp, "arp": arp}


def _resized_payload(frame):
    """A new payload of the same shape: an ARP reply (ARP has one size), or
    the IPv4 packet with 1 000 more L4 payload bytes."""
    packet = frame.payload
    if isinstance(packet, ArpPacket):
        return ArpPacket(
            op=ArpOp.REPLY, sender_mac=mac(2), sender_ip=ip("1.1.1.2"),
            target_mac=mac(1), target_ip=ip("1.1.1.1"))
    l4 = packet.payload
    return dataclasses.replace(
        packet, payload=dataclasses.replace(l4, payload_bytes=l4.payload_bytes + 1000))


def _envelope_round_trip(frame):
    envelope = Envelope(src_domain=0, dst_domain=1, seq=0, sent_at=0.0,
                        arrival_at=1.0, frame=frame)
    return decode_envelopes(encode_envelopes([envelope]))[0].frame


FRAME_COPIES = {
    "built": lambda frame: frame,
    "rewrite_headers": lambda frame: frame.rewrite_headers(
        (mac(7), None, None, IPv4("192.0.2.9"), 8080, None, 8080, None)),
    "replace": lambda frame: dataclasses.replace(frame, src=mac(5)),
    "replace-payload": lambda frame: dataclasses.replace(frame, payload=_resized_payload(frame)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda frame: pickle.loads(pickle.dumps(frame)),
    "pickle-0": lambda frame: pickle.loads(pickle.dumps(frame, protocol=0)),
    "envelope-codec": _envelope_round_trip,
}


class TestStoredWireSize:
    """The size stored when a frame is built stays the layered sum through
    every way a frame is copied or rewritten."""

    @pytest.mark.parametrize("how", FRAME_COPIES)
    @pytest.mark.parametrize("kind", ["tcp", "udp", "arp"])
    def test_stored_size_is_the_layered_sum(self, kind, how):
        frame = _size_frames()[kind]
        out = FRAME_COPIES[how](frame)
        assert out.wire_bytes == layered_wire_bytes(out)

    @pytest.mark.parametrize("kind", ["tcp", "udp", "arp"])
    def test_a_new_payload_is_sized_anew(self, kind):
        frame = _size_frames()[kind]
        out = dataclasses.replace(frame, payload=_resized_payload(frame))
        assert out.wire_bytes == layered_wire_bytes(out)
        assert (out.wire_bytes != frame.wire_bytes) == (kind != "arp")

    def test_size_is_not_part_of_equality_or_repr(self):
        frame = _size_frames()["tcp"]
        assert "wire_bytes" not in repr(frame)
        assert hash(frame) == hash(copy.copy(frame))


class TestAccessors:
    def test_layer_accessors_tcp(self):
        frame = tcp_frame()
        assert frame.ipv4 is not None
        assert frame.tcp is not None
        assert frame.udp is None
        assert frame.arp is None
        assert frame.tcp.src_port == 1234

    def test_tcp_flag_helpers(self):
        seg = TCPSegment(src_port=1, dst_port=2,
                         flags=TCPFlags.SYN | TCPFlags.ACK)
        assert seg.has(TCPFlags.SYN)
        assert seg.has(TCPFlags.ACK)
        assert not seg.has(TCPFlags.FIN)

    def test_a_header_rewrite_copies_and_keeps_the_ttl(self):
        frame = tcp_frame()
        out = frame.rewrite_headers((None, None, None, ip("10.0.0.9"),
                                     None, None, None, None))
        assert out.ipv4.dst == ip("10.0.0.9") and out.ipv4.ttl == 64
        assert frame.ipv4.dst == ip("10.0.0.2")  # original untouched

    def test_frames_are_value_like(self):
        a = tcp_frame()
        b = dataclasses.replace(a)
        assert a == b and a.wire_bytes == b.wire_bytes


class TestDescribe:
    def test_tcp_describe(self):
        text = tcp_frame(flags=TCPFlags.SYN).describe()
        assert "TCP 10.0.0.1:1234 > 10.0.0.2:80" in text
        assert "SYN" in text

    def test_udp_describe(self):
        dg = UDPDatagram(src_port=5, dst_port=53, payload_bytes=10)
        pkt = IPv4Packet(src=ip("1.1.1.1"), dst=ip("2.2.2.2"),
                         proto=IP_PROTO_UDP, payload=dg)
        frame = EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_IP,
                              payload=pkt)
        assert "UDP 1.1.1.1:5 > 2.2.2.2:53" in frame.describe()

    def test_arp_describe(self):
        arp = ArpPacket(op=ArpOp.REQUEST, sender_mac=mac(1),
                        sender_ip=ip("1.1.1.1"), target_mac=mac(0),
                        target_ip=ip("1.1.1.9"))
        frame = EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_ARP,
                              payload=arp)
        assert "who-has 1.1.1.9" in frame.describe()
        reply = ArpPacket(op=ArpOp.REPLY, sender_mac=mac(1),
                          sender_ip=ip("1.1.1.9"), target_mac=mac(2),
                          target_ip=ip("1.1.1.1"))
        frame = EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_ARP,
                              payload=reply)
        assert "is-at" in frame.describe()

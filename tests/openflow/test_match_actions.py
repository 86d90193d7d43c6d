"""Unit tests for Match, field extraction, and actions."""

import pytest

from repro.netsim import (
    ETH_TYPE_ARP,
    ETH_TYPE_IP,
    IP_PROTO_TCP,
    EthernetFrame,
    IPv4Packet,
    TCPSegment,
    UDPDatagram,
    ip,
    mac,
)
from repro.netsim.packet import IP_PROTO_UDP, ArpOp, ArpPacket
from repro.openflow import Match, OutputAction, SetFieldAction, extract_fields
from repro.openflow.actions import apply_actions_multi


def tcp_frame(src_ip="10.0.0.1", dst_ip="1.2.3.4", sport=40000, dport=80):
    seg = TCPSegment(src_port=sport, dst_port=dport)
    pkt = IPv4Packet(src=ip(src_ip), dst=ip(dst_ip), proto=IP_PROTO_TCP, payload=seg)
    return EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_IP, payload=pkt)


def udp_frame():
    dg = UDPDatagram(src_port=1000, dst_port=53)
    pkt = IPv4Packet(src=ip("10.0.0.1"), dst=ip("8.8.8.8"), proto=IP_PROTO_UDP, payload=dg)
    return EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_IP, payload=pkt)


def arp_frame():
    arp = ArpPacket(op=ArpOp.REQUEST, sender_mac=mac(1), sender_ip=ip("10.0.0.1"),
                    target_mac=mac(0), target_ip=ip("10.0.0.254"))
    return EthernetFrame(src=mac(1), dst=mac((1 << 48) - 1), ethertype=ETH_TYPE_ARP, payload=arp)


class TestExtractFields:
    def test_tcp_fields(self):
        fields = extract_fields(tcp_frame(), in_port=3)
        assert fields["in_port"] == 3
        assert fields["eth_type"] == ETH_TYPE_IP
        assert fields["ipv4_src"] == ip("10.0.0.1")
        assert fields["ipv4_dst"] == ip("1.2.3.4")
        assert fields["ip_proto"] == IP_PROTO_TCP
        assert fields["tcp_src"] == 40000
        assert fields["tcp_dst"] == 80
        assert "udp_dst" not in fields

    def test_udp_fields(self):
        fields = extract_fields(udp_frame(), in_port=1)
        assert fields["udp_dst"] == 53
        assert "tcp_dst" not in fields

    def test_arp_fields(self):
        fields = extract_fields(arp_frame(), in_port=1)
        assert fields["eth_type"] == ETH_TYPE_ARP
        assert fields["arp_op"] == 1
        assert fields["arp_tpa"] == ip("10.0.0.254")
        assert "ipv4_dst" not in fields


class TestMatch:
    def test_empty_match_is_wildcard(self):
        assert Match().matches(extract_fields(tcp_frame(), 1))
        assert Match().matches(extract_fields(arp_frame(), 1))

    def test_exact_match(self):
        m = Match(eth_type=ETH_TYPE_IP, ipv4_dst="1.2.3.4", tcp_dst=80)
        assert m.matches(extract_fields(tcp_frame(), 1))
        assert not m.matches(extract_fields(tcp_frame(dport=443), 1))

    def test_string_values_canonicalised(self):
        m = Match(ipv4_dst="1.2.3.4")
        assert m.matches(extract_fields(tcp_frame(), 1))
        m2 = Match(eth_dst="00:00:00:00:00:02")
        assert m2.matches(extract_fields(tcp_frame(), 1))

    def test_absent_field_never_matches(self):
        m = Match(tcp_dst=80)
        assert not m.matches(extract_fields(arp_frame(), 1))
        assert not m.matches(extract_fields(udp_frame(), 1))

    def test_masked_ipv4_match(self):
        m = Match(ipv4_src=("10.0.0.0", 8))
        assert m.matches(extract_fields(tcp_frame(src_ip="10.9.9.9"), 1))
        assert not m.matches(extract_fields(tcp_frame(src_ip="11.0.0.1"), 1))

    def test_masked_match_rejected_for_ports(self):
        with pytest.raises(ValueError):
            Match(tcp_dst=(80, 8))

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            Match(vlan_id=5)

    def test_in_port_match(self):
        m = Match(in_port=7)
        assert m.matches(extract_fields(tcp_frame(), 7))
        assert not m.matches(extract_fields(tcp_frame(), 8))

    def test_equality_and_hash(self):
        a = Match(tcp_dst=80, ipv4_dst="1.2.3.4")
        b = Match(ipv4_dst="1.2.3.4", tcp_dst=80)
        assert a == b and hash(a) == hash(b)
        assert a != Match(tcp_dst=81, ipv4_dst="1.2.3.4")

    def test_conditions_and_repr_keep_the_order_given(self):
        m = Match(tcp_dst=80, ipv4_src=("10.0.0.0", 8), eth_type=ETH_TYPE_IP)
        assert list(m.conditions) == ["tcp_dst", "eth_type", "ipv4_src"]
        assert repr(m) == "Match(tcp_dst=80, eth_type=2048, ipv4_src=10.0.0.0/8)"
        assert m == Match(ipv4_src=("10.0.0.0", 8), eth_type=ETH_TYPE_IP, tcp_dst=80)
        assert m.exact_value("tcp_dst") == 80 and m.exact_value("ipv4_src") is None

    def test_covers_wildcard_covers_all(self):
        assert Match().covers(Match(tcp_dst=80))
        assert not Match(tcp_dst=80).covers(Match())

    def test_covers_exact(self):
        broad = Match(ipv4_dst="1.2.3.4")
        narrow = Match(ipv4_dst="1.2.3.4", tcp_dst=80)
        assert broad.covers(narrow)
        assert not narrow.covers(broad)

    def test_covers_masked(self):
        subnet = Match(ipv4_dst=("10.0.0.0", 8))
        host = Match(ipv4_dst="10.1.2.3")
        narrower = Match(ipv4_dst=("10.1.0.0", 16))
        assert subnet.covers(host)
        assert subnet.covers(narrower)
        assert not narrower.covers(subnet)


class TestActions:
    def test_output_action(self):
        frame = tcp_frame()
        outputs = apply_actions_multi(frame, [OutputAction(4)])
        assert outputs == [(frame, 4)]

    def test_set_field_rewrites_copy(self):
        frame = tcp_frame()
        actions = [
            SetFieldAction("ipv4_dst", "192.168.0.9"),
            SetFieldAction("eth_dst", "02:00:00:00:00:09"),
            SetFieldAction("tcp_dst", 8080),
            OutputAction(2),
        ]
        [(out, port)] = apply_actions_multi(frame, actions)
        assert port == 2
        assert out.ipv4.dst == ip("192.168.0.9")
        assert out.dst == mac("02:00:00:00:00:09")
        assert out.tcp.dst_port == 8080
        # original untouched
        assert frame.ipv4.dst == ip("1.2.3.4")
        assert frame.tcp.dst_port == 80

    def test_set_field_after_output_does_not_affect_prior_output(self):
        frame = tcp_frame()
        actions = [
            OutputAction(1),
            SetFieldAction("ipv4_dst", "9.9.9.9"),
            OutputAction(2),
        ]
        outputs = apply_actions_multi(frame, actions)
        assert outputs[0][0].ipv4.dst == ip("1.2.3.4")
        assert outputs[1][0].ipv4.dst == ip("9.9.9.9")

    def test_set_field_on_non_ip_frame_is_noop_for_l3(self):
        frame = arp_frame()
        [(out, _)] = apply_actions_multi(
            frame, [SetFieldAction("ipv4_dst", "9.9.9.9"), OutputAction(1)])
        assert out.arp is not None  # unchanged ARP

    def test_udp_port_rewrite(self):
        frame = udp_frame()
        [(out, _)] = apply_actions_multi(
            frame, [SetFieldAction("udp_dst", 5353), OutputAction(1)])
        assert out.udp.dst_port == 5353

    def test_unrewritable_field_rejected(self):
        with pytest.raises(ValueError):
            SetFieldAction("eth_type", 0x0800)

    def test_empty_action_list_is_drop(self):
        assert apply_actions_multi(tcp_frame(), []) == []

    def test_set_field_value_coercion(self):
        action = SetFieldAction("ipv4_src", "10.0.0.1")
        assert action.value == ip("10.0.0.1")
        action = SetFieldAction("eth_src", "02:00:00:00:00:01")
        assert action.value == mac("02:00:00:00:00:01")

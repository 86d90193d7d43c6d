"""Unit tests for MAC/IPv4 address types."""

import copy
import dataclasses
import pickle

import pytest

from repro.netsim import (
    BROADCAST_MAC,
    ETH_TYPE_IP,
    MAC,
    EthernetFrame,
    IPv4,
    IPv4Packet,
    TCPSegment,
    ip,
    mac,
)
from repro.netsim.packet import IP_PROTO_TCP
from repro.simcore.domains.envelope import Envelope, decode_envelopes, encode_envelopes


class TestMAC:
    def test_parse_and_format(self):
        m = MAC("02:00:00:00:00:2a")
        assert str(m) == "02:00:00:00:00:2a"
        assert int(m) == 0x02_00_00_00_00_2A

    def test_parse_dash_separated(self):
        assert MAC("02-00-00-00-00-01") == MAC("02:00:00:00:00:01")

    def test_from_int_roundtrip(self):
        m = MAC(0xA1B2C3D4E5F6)
        assert MAC(str(m)) == m

    def test_copy_constructor(self):
        m = MAC("02:00:00:00:00:01")
        assert MAC(m) == m

    def test_equality_and_hash(self):
        a, b = MAC(5), MAC(5)
        assert a == b and hash(a) == hash(b)
        assert a != MAC(6)
        assert a != 5  # not equal to raw ints

    def test_ordering(self):
        assert MAC(1) < MAC(2)

    def test_broadcast_detection(self):
        assert BROADCAST_MAC.is_broadcast
        assert not MAC(1).is_broadcast

    def test_multicast_bit(self):
        assert MAC("01:00:5e:00:00:01").is_multicast
        assert not MAC("02:00:00:00:00:01").is_multicast

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MAC(1 << 48)
        with pytest.raises(ValueError):
            MAC(-1)

    def test_malformed_strings_rejected(self):
        for bad in ["1:2:3", "zz:00:00:00:00:00", "02:00:00:00:00:100"]:
            with pytest.raises(ValueError):
                MAC(bad)

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            MAC(1.5)


class TestIPv4:
    def test_parse_and_format(self):
        a = IPv4("10.0.0.42")
        assert str(a) == "10.0.0.42"
        assert int(a) == (10 << 24) + 42

    def test_from_int_roundtrip(self):
        a = IPv4(0xC0A80101)
        assert str(a) == "192.168.1.1"

    def test_equality_and_hash(self):
        assert IPv4("1.2.3.4") == IPv4("1.2.3.4")
        assert hash(IPv4("1.2.3.4")) == hash(IPv4("1.2.3.4"))
        assert IPv4("1.2.3.4") != IPv4("1.2.3.5")

    def test_ordering(self):
        assert IPv4("10.0.0.1") < IPv4("10.0.0.2")

    def test_add_offset(self):
        assert IPv4("10.0.0.1") + 9 == IPv4("10.0.0.10")

    def test_in_subnet(self):
        net = IPv4("10.1.0.0")
        assert IPv4("10.1.2.3").in_subnet(net, 16)
        assert not IPv4("10.2.0.1").in_subnet(net, 16)
        assert IPv4("1.2.3.4").in_subnet(net, 0)  # /0 matches all
        assert IPv4("10.1.0.0").in_subnet(net, 32)
        assert not IPv4("10.1.0.1").in_subnet(net, 32)

    def test_in_subnet_bad_prefix(self):
        with pytest.raises(ValueError):
            IPv4("1.1.1.1").in_subnet(IPv4("1.1.1.0"), 40)

    def test_malformed_rejected(self):
        for bad in ["1.2.3", "1.2.3.256", "a.b.c.d"]:
            with pytest.raises(ValueError):
                IPv4(bad)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            IPv4(1 << 32)


def test_convenience_constructors_idempotent():
    m = mac("02:00:00:00:00:01")
    assert mac(m) is m
    a = ip("10.0.0.1")
    assert ip(a) is a


# ------------------------------------------------------ identity contract
#
# Interned addresses define no __eq__ or __hash__: equality is identity and
# the hash is object's. That is only sound while no path can hand out a
# second object for the same address, so every copy path is pinned here.


def _frame(src_mac, dst_mac, src_ip, dst_ip):
    packet = IPv4Packet(src=src_ip, dst=dst_ip, proto=IP_PROTO_TCP,
                        payload=TCPSegment(src_port=40000, dst_port=80))
    return EthernetFrame(src=src_mac, dst=dst_mac, ethertype=ETH_TYPE_IP,
                         payload=packet)


ADDRESSES = [MAC("02:00:00:00:00:2a"), BROADCAST_MAC,
             IPv4("10.0.0.42"), IPv4(0)]


@pytest.mark.parametrize("addr", ADDRESSES, ids=repr)
@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    lambda a: pickle.loads(pickle.dumps(a)),
    lambda a: pickle.loads(pickle.dumps(a, protocol=0)),
    lambda a: pickle.loads(pickle.dumps(a, protocol=pickle.HIGHEST_PROTOCOL)),
], ids=["copy", "deepcopy", "pickle", "pickle-0", "pickle-highest"])
def test_every_copy_is_the_interned_object(addr, clone):
    assert clone(addr) is addr


def test_frame_copies_keep_address_identity():
    src_mac, dst_mac = MAC(1), MAC(2)
    src_ip, dst_ip = IPv4("10.0.0.1"), IPv4("203.0.113.5")
    frame = _frame(src_mac, dst_mac, src_ip, dst_ip)
    for other in (copy.copy(frame), copy.deepcopy(frame),
                  pickle.loads(pickle.dumps(frame)),
                  dataclasses.replace(frame, frame_id=7)):
        assert other.src is src_mac and other.dst is dst_mac
        assert other.payload.src is src_ip and other.payload.dst is dst_ip
        assert other == frame
    rewritten = dataclasses.replace(frame, dst=MAC(2))
    assert rewritten.dst is dst_mac and rewritten == frame


def test_envelope_codec_keeps_address_identity():
    frames = [_frame(MAC(index + 1), MAC(0xFE), IPv4(f"10.0.0.{index + 1}"),
                     IPv4("198.51.100.9")) for index in range(3)]
    envelopes = [Envelope(src_domain=0, dst_domain=1, seq=index, sent_at=0.5,
                          arrival_at=0.75, frame=frame)
                 for index, frame in enumerate(frames)]
    decoded = decode_envelopes(encode_envelopes(envelopes))
    assert decoded == envelopes
    for before, after in zip(frames, (e.frame for e in decoded), strict=True):
        assert after.src is before.src and after.dst is before.dst
        assert after.payload.src is before.payload.src
        assert after.payload.dst is before.payload.dst


@pytest.mark.parametrize("cls", [MAC, IPv4])
def test_equality_and_hash_are_objects(cls):
    """A returning Python __eq__/__hash__ would cost a call per dict probe."""
    assert cls.__hash__ is object.__hash__
    assert cls.__eq__ is object.__eq__
    assert "_hash" not in cls.__slots__
    addr = cls(7)
    assert type(addr).__hash__ is object.__hash__
    assert hash(addr) == object.__hash__(addr)


@pytest.mark.parametrize("cls", [MAC, IPv4])
@pytest.mark.parametrize("value", [0, 5, 0xC0A80101])
def test_never_equal_to_an_int(cls, value):
    assert cls(value) != value and value != cls(value)
    assert not cls(value) == value
    assert cls(value) in {cls(value)} and value not in {cls(value)}


def test_classes_never_equal_each_other():
    assert MAC(5) != IPv4(5) and IPv4(5) != MAC(5)
    assert len({MAC(5), IPv4(5)}) == 2


def test_the_zero_addresses_are_truthy():
    assert bool(IPv4(0)) and bool(MAC(0))
    assert IPv4("0.0.0.0") is IPv4(0)


def test_ordering_is_by_value():
    assert sorted([IPv4(3), IPv4(1), IPv4(2)]) == [IPv4(1), IPv4(2), IPv4(3)]
    assert IPv4(1) <= IPv4(1) < IPv4(2) and IPv4(2) >= IPv4(2) > IPv4(1)
    assert MAC(1) <= MAC(1) < MAC(2)
    with pytest.raises(TypeError):
        IPv4(1) < MAC(2)  # noqa: B015

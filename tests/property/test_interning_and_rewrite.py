"""Property tests for the allocation-lean packet model.

Three families, all over randomized inputs:

* address interning — equality and identity coincide, across both
  constructor forms and a pickle round-trip (pool workers exchange
  addresses, so ``__reduce__`` must land on the singleton);
* a frame rewritten by ``dataclasses.replace`` — identical to the frame
  the constructor builds from the new fields, sized anew;
* the flat ``rewrite_headers`` the switch runs per output — equivalent to a
  ``dataclasses.replace`` per changed layer, while *sharing* every untouched
  sub-object.
"""

import dataclasses
import pickle

from hypothesis import given, strategies as st

from repro.netsim import ETH_TYPE_IP, EthernetFrame, IPv4, IPv4Packet, MAC, TCPSegment, ip, mac
from repro.netsim.packet import IP_PROTO_TCP, TCPFlags

ip_ints = st.integers(min_value=0, max_value=2**32 - 1)
mac_ints = st.integers(min_value=0, max_value=2**48 - 1)
ports = st.integers(min_value=1, max_value=65535)


def frames():
    return st.builds(
        lambda esrc, edst, isrc, idst, sport, dport, seq, ack, nbytes, last:
        EthernetFrame(
            src=mac(esrc), dst=mac(edst), ethertype=ETH_TYPE_IP,
            payload=IPv4Packet(
                src=ip(isrc), dst=ip(idst), proto=IP_PROTO_TCP,
                payload=TCPSegment(src_port=sport, dst_port=dport, seq=seq,
                                   ack=ack, flags=TCPFlags.ACK,
                                   payload_bytes=nbytes, last_fragment=last))),
        mac_ints, mac_ints, ip_ints, ip_ints, ports, ports,
        st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=100000), st.booleans())


class TestInterning:
    @given(ip_ints)
    def test_ipv4_identity_is_equality(self, value):
        assert ip(value) is ip(value)
        assert IPv4(value) is ip(value)
        assert ip(value) is ip(str(ip(value)))  # string form re-interns

    @given(mac_ints)
    def test_mac_identity_is_equality(self, value):
        assert mac(value) is mac(value)
        assert MAC(value) is mac(value)
        assert mac(value) is mac(str(mac(value)))

    @given(ip_ints, ip_ints)
    def test_distinct_values_distinct_objects(self, a, b):
        assert (ip(a) is ip(b)) == (a == b)

    @given(ip_ints, mac_ints)
    def test_pickle_reinterns(self, ipv, macv):
        a, m = ip(ipv), mac(macv)
        assert pickle.loads(pickle.dumps(a)) is a
        assert pickle.loads(pickle.dumps(m)) is m
        # and through a container, as pool results actually travel
        back_ip, back_mac = pickle.loads(pickle.dumps((a, m)))
        assert back_ip is a and back_mac is m


def _replace_fields(obj, **changes):
    """``dataclasses.replace`` with the ``None`` changes left out."""
    return dataclasses.replace(obj, **{k: v for k, v in changes.items() if v is not None})


class TestRewriteRoundTrip:
    @given(frames(), st.integers(min_value=0, max_value=7))
    def test_rewrite_equals_replace(self, frame, fieldmask):
        """``dataclasses.replace`` of any subset of the MACs and the payload
        builds exactly the frame the constructor builds from the new
        fields, sized anew."""
        new_esrc = mac(0x02AA00000001) if fieldmask & 1 else None
        new_edst = mac(0x02AA00000002) if fieldmask & 2 else None
        new_pkt = (dataclasses.replace(frame.payload, ttl=9) if fieldmask & 4 else None)
        got = _replace_fields(frame, src=new_esrc, dst=new_edst, payload=new_pkt)
        want = EthernetFrame(frame.src if new_esrc is None else new_esrc,
                             frame.dst if new_edst is None else new_edst,
                             frame.ethertype, frame.payload if new_pkt is None else new_pkt)
        assert got == want
        assert got.wire_bytes == want.wire_bytes == frame.wire_bytes  # compare=False

    @given(frames())
    def test_rewrite_shares_untouched_layers(self, frame):
        """An IPv4-only write must not copy the L4 segment or the MACs (that
        sharing is the allocation win the bench measures)."""
        out = frame.rewrite_headers((None, None, None, ip("192.0.2.2"),
                                     None, None, None, None))
        assert out.payload.payload is frame.payload.payload
        assert out.src is frame.src and out.dst is frame.dst
        assert out.payload.ttl == frame.payload.ttl

    @given(frames(), st.integers(min_value=0, max_value=255))
    def test_fused_equals_layerwise(self, frame, fieldmask):
        """Any subset of the eight slots of a write row: one flat
        ``rewrite_headers`` call equals a ``dataclasses.replace`` per
        changed layer. The UDP slots are no-ops on a TCP frame."""
        values = (mac(0x02AA00000011), mac(0x02AA00000012),
                  ip("198.51.100.9"), ip("198.51.100.10"), 3333, 4444, 5555, 6666)
        row = tuple(value if fieldmask >> slot & 1 else None
                    for slot, value in enumerate(values))
        eth_src, eth_dst, ipv4_src, ipv4_dst, tcp_src, tcp_dst, _udp_src, _udp_dst = row

        fused = frame.rewrite_headers(row)

        seg = _replace_fields(frame.payload.payload, src_port=tcp_src, dst_port=tcp_dst)
        pkt = _replace_fields(frame.payload, src=ipv4_src, dst=ipv4_dst, payload=seg)
        want = _replace_fields(frame, src=eth_src, dst=eth_dst, payload=pkt)
        assert fused == want
        assert fused.wire_bytes == frame.wire_bytes
        if not fieldmask & 0x3F:
            assert fused is frame  # nothing applies: returns self, zero allocations

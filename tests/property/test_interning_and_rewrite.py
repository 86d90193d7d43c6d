"""Property tests for the allocation-lean packet model.

Three families, all over randomized inputs:

* address interning — equality and identity coincide, across both
  constructor forms and a pickle round-trip (pool workers exchange
  addresses, so ``__reduce__`` must land on the singleton);
* ``rewrite()`` — structurally identical to rebuilding the object with
  ``dataclasses.replace``, while *sharing* every untouched sub-object;
* the fused ``rewrite_headers`` used by the switch action pipeline —
  equivalent to its layer-by-layer reference.
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


class TestRewriteRoundTrip:
    @given(frames(), st.integers(min_value=0, max_value=63))
    def test_rewrite_equals_replace(self, frame, fieldmask):
        """Any subset of the six rewritable header fields: ``rewrite``
        chains produce exactly what ``dataclasses.replace`` chains do."""
        seg, pkt = frame.payload.payload, frame.payload
        new_esrc = mac(0x02AA00000001) if fieldmask & 1 else None
        new_edst = mac(0x02AA00000002) if fieldmask & 2 else None
        new_isrc = ip("192.0.2.1") if fieldmask & 4 else None
        new_idst = ip("192.0.2.2") if fieldmask & 8 else None
        new_sport = 11111 if fieldmask & 16 else None
        new_dport = 22222 if fieldmask & 32 else None

        got = frame.rewrite(
            src=new_esrc, dst=new_edst,
            payload=pkt.rewrite(
                src=new_isrc, dst=new_idst,
                payload=seg.rewrite(src_port=new_sport, dst_port=new_dport)))

        want_seg = dataclasses.replace(
            seg, **{k: v for k, v in
                    (("src_port", new_sport), ("dst_port", new_dport))
                    if v is not None})
        want_pkt = dataclasses.replace(
            pkt, payload=want_seg,
            **{k: v for k, v in (("src", new_isrc), ("dst", new_idst))
               if v is not None})
        want = dataclasses.replace(
            frame, payload=want_pkt,
            **{k: v for k, v in (("src", new_esrc), ("dst", new_edst))
               if v is not None})
        assert got == want
        assert got.wire_bytes == frame.wire_bytes  # compare=False, so check it

    @given(frames())
    def test_rewrite_shares_untouched_layers(self, frame):
        """A TTL-only rewrite must not copy the L4 payload (that sharing is
        the allocation win the bench measures)."""
        out = frame.rewrite(payload=frame.payload.rewrite(ttl=9))
        assert out.payload.payload is frame.payload.payload
        assert out.src is frame.src and out.dst is frame.dst

    @given(frames(), st.integers(min_value=0, max_value=63))
    def test_fused_equals_layerwise(self, frame, fieldmask):
        kwargs = {}
        if fieldmask & 1:
            kwargs["eth_src"] = mac(0x02AA00000011)
        if fieldmask & 2:
            kwargs["eth_dst"] = mac(0x02AA00000012)
        if fieldmask & 4:
            kwargs["ipv4_src"] = ip("198.51.100.9")
        if fieldmask & 8:
            kwargs["ipv4_dst"] = ip("198.51.100.10")
        if fieldmask & 16:
            kwargs["l4_src"] = 3333
        if fieldmask & 32:
            kwargs["l4_dst"] = 4444

        fused = frame.rewrite_headers(**kwargs)

        want = frame
        seg = want.payload.payload.rewrite(src_port=kwargs.get("l4_src"),
                                           dst_port=kwargs.get("l4_dst"))
        pkt = want.payload.rewrite(src=kwargs.get("ipv4_src"),
                                   dst=kwargs.get("ipv4_dst"), payload=seg)
        want = want.rewrite(src=kwargs.get("eth_src"),
                            dst=kwargs.get("eth_dst"), payload=pkt)
        assert fused == want
        if not kwargs:
            assert fused is frame  # no-op returns self, zero allocations

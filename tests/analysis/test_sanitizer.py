"""Tests for the runtime sanitizer (repro.analysis.sanitizer).

The sanitizer is a monkeypatch layer; these tests check that (a) clean runs
pass through it unchanged, (b) each planted invariant violation is caught,
and (c) install/uninstall leaves the substrate classes exactly as found.
"""

import copy
import dataclasses
import heapq
import pickle

import pytest

from repro.analysis import Sanitizer, SanitizerError, active_sanitizer, sanitized
from repro.core.flowmemory import FlowMemory
from repro.core.serviceid import ServiceID
from repro.edge.cluster import Endpoint
from repro.netsim.addresses import MAC, IPv4
from repro.netsim.packet import (
    ETH_TYPE_ARP,
    ETH_TYPE_IP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    ArpOp,
    ArpPacket,
    EthernetFrame,
    HTTPRequest,
    HTTPResponse,
    IPv4Packet,
    TCPSegment,
    UDPDatagram,
)
from repro.simcore import RandomStreams, Simulator


# ------------------------------------------------------------ install cycle


def test_install_uninstall_restores_originals():
    # Suspend a session-wide sanitizer (REPRO_SANITIZE=1) so the captured
    # attributes really are the pristine originals.
    outer = active_sanitizer()
    if outer is not None:
        outer.uninstall()
    try:
        orig_schedule = Simulator.schedule
        orig_pop = Simulator._pop_alive
        orig_run = Simulator.run
        orig_stream = RandomStreams.stream
        orig_remember = FlowMemory.remember
        with sanitized() as sanitizer:
            assert active_sanitizer() is sanitizer
            assert Simulator.schedule is not orig_schedule
        assert active_sanitizer() is None
        assert Simulator.schedule is orig_schedule
        assert Simulator._pop_alive is orig_pop
        assert Simulator.run is orig_run
        assert RandomStreams.stream is orig_stream
        assert FlowMemory.remember is orig_remember
        assert "__setattr__" not in vars(EthernetFrame)  # inherited again
    finally:
        if outer is not None:
            outer.install()


def test_patched_attributes_keep_their_originals_qualname():
    # The performance ledger names its spans by __qualname__: a patched
    # method must still read as the one it replaces.
    outer = active_sanitizer()
    if outer is not None:
        outer.uninstall()
    try:
        with sanitized() as sanitizer:
            patched = {key: getattr(*key).__qualname__ for key in sanitizer._originals}
        assert patched
        for (cls, name), qualname in patched.items():
            assert qualname == getattr(cls, name).__qualname__, (cls, name)
    finally:
        if outer is not None:
            outer.install()


def test_double_install_rejected():
    with sanitized():
        with pytest.raises(SanitizerError):
            Sanitizer().install()


def test_uninstall_without_install_is_noop():
    Sanitizer().uninstall()  # must not raise


def test_sanitized_nests_by_suspending_the_outer():
    session = active_sanitizer()  # non-None when REPRO_SANITIZE=1
    with sanitized() as outer:
        with sanitized() as inner:
            assert inner is not outer
            assert active_sanitizer() is inner
        assert active_sanitizer() is outer
    assert active_sanitizer() is session


# ----------------------------------------------------------- event ordering


def test_clean_run_passes_and_counts_checks():
    with sanitized() as sanitizer:
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(1.0, lambda: seen.append("b"))
        sim.schedule(0.5, lambda: seen.append("c"))
        sim.run()
        assert seen == ["c", "a", "b"]
        assert sanitizer.checks_run["schedule"] == 3
        assert sanitizer.checks_run["event_order"] == 3


def test_non_finite_delay_is_caught():
    with sanitized():
        sim = Simulator()
        with pytest.raises(SanitizerError, match="non-finite"):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SanitizerError, match="non-finite"):
            sim.schedule(float("inf"), lambda: None)


def test_corrupted_heap_order_is_caught():
    with sanitized():
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        # Plant an event in the past, bypassing schedule()'s guard: the
        # order audit must notice the popped key went backwards.
        from repro.simcore.loop import EventHandle

        rogue = EventHandle((0.25, 1, lambda: None, (), sim))
        heapq.heappush(sim._queue, rogue)
        with pytest.raises(SanitizerError, match="event order audit"):
            sim.run()


# -------------------------------------------------------------- RNG ledger


def test_rng_ledger_counts_draws_per_stream():
    with sanitized() as sanitizer:
        streams = RandomStreams(seed=42)
        arrivals = streams.stream("workload.arrivals")
        sizes = streams.stream("workload.sizes")
        for _ in range(5):
            arrivals.random()
        sizes.integers(0, 10)
        assert sanitizer.draw_counts() == {
            "workload.arrivals": 5, "workload.sizes": 1}


def test_ledger_proxy_preserves_stream_determinism():
    baseline = RandomStreams(seed=7).stream("x").random(4).tolist()
    with sanitized():
        audited = RandomStreams(seed=7).stream("x").random(4).tolist()
    assert audited == baseline


def test_stream_identity_stable_under_proxy():
    with sanitized():
        streams = RandomStreams(seed=1)
        assert streams.stream("a") is streams.stream("a")


# ------------------------------------------------------ FlowMemory integrity


def _memory():
    sim = Simulator()
    memory = FlowMemory(sim, idle_timeout_s=10.0)
    client = IPv4("10.0.0.1")
    service = ServiceID(IPv4("10.9.0.1"), 80)
    endpoint = Endpoint(IPv4("10.1.0.2"), 8080)
    return sim, memory, client, service, endpoint


def test_flowmemory_clean_mutations_pass():
    with sanitized() as sanitizer:
        sim, memory, client, service, endpoint = _memory()
        memory.remember(client, service, cluster=None, endpoint=endpoint)
        memory.forget(client, service)
        memory.clear()
        assert sanitizer.checks_run["flowmemory"] >= 3


def test_flowmemory_key_mismatch_is_caught():
    with sanitized():
        sim, memory, client, service, endpoint = _memory()
        flow = memory.remember(client, service, cluster=None, endpoint=endpoint)
        flow.key = (IPv4("10.0.0.99"), service)  # corrupt the mirror
        with pytest.raises(SanitizerError, match="integrity"):
            memory.forget(IPv4("10.0.0.50"), service)


def test_flowmemory_future_timestamp_is_caught():
    with sanitized():
        sim, memory, client, service, endpoint = _memory()
        flow = memory.remember(client, service, cluster=None, endpoint=endpoint)
        flow.last_used = 1e9  # far in the (simulated) future
        with pytest.raises(SanitizerError, match="future"):
            memory.forget(IPv4("10.0.0.50"), service)


def test_flowmemory_reference_count_drift_is_caught():
    with sanitized():
        sim, memory, client, service, endpoint = _memory()
        flow = memory.remember(client, service, cluster=None, endpoint=endpoint)
        flow.endpoint = Endpoint(IPv4("10.1.0.3"), 8080)  # counted elsewhere
        with pytest.raises(SanitizerError, match="recount"):
            memory.forget(IPv4("10.0.0.50"), service)


def test_sanitizer_off_means_no_checks():
    session = active_sanitizer()  # suspend REPRO_SANITIZE=1 if present
    if session is not None:
        session.uninstall()
    try:
        sim, memory, client, service, endpoint = _memory()
        flow = memory.remember(client, service, cluster=None, endpoint=endpoint)
        flow.key = (IPv4("10.0.0.99"), service)
        memory.forget(IPv4("10.0.0.50"), service)  # silently tolerated when off
    finally:
        if session is not None:
            session.install()


# ---------------------------------------------------------- copy on rewrite


def _packets():
    """One built packet of each of the seven classes, by class name."""
    request = HTTPRequest(method="POST", body_bytes=10)
    segment = TCPSegment(src_port=1, dst_port=80, payload=request, payload_bytes=130)
    datagram = UDPDatagram(src_port=5, dst_port=53, payload="query", payload_bytes=8)
    ipv4 = IPv4Packet(src=IPv4("10.0.0.1"), dst=IPv4("10.0.0.2"),
                      proto=IP_PROTO_TCP, payload=segment)
    arp = ArpPacket(op=ArpOp.REQUEST, sender_mac=MAC(1), sender_ip=IPv4("10.0.0.1"),
                    target_mac=MAC(0), target_ip=IPv4("10.0.0.2"))
    frame = EthernetFrame(MAC(1), MAC(2), ETH_TYPE_IP, ipv4)
    return {type(p).__name__: p for p in (
        request, HTTPResponse(status=201), segment, datagram, ipv4, arp, frame)}


PACKET_CLASSES = sorted(_packets())


@pytest.mark.parametrize("name", PACKET_CLASSES)
def test_a_store_to_a_built_packet_is_caught(name):
    with sanitized():
        packet = _packets()[name]
        for field in packet.__slots__:
            value = getattr(packet, field)
            with pytest.raises(SanitizerError, match="copy-on-rewrite"):
                setattr(packet, field, value)
            assert getattr(packet, field) is value


@pytest.mark.parametrize("name", PACKET_CLASSES)
def test_every_way_of_building_a_packet_passes(name):
    with sanitized():
        packet = _packets()[name]
        first = packet.__slots__[0]
        assert getattr(dataclasses.replace(packet), first) == getattr(packet, first)
        copies = [copy.copy(packet), copy.deepcopy(packet)]
        copies += [pickle.loads(pickle.dumps(packet, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for built in copies:
            assert built == packet and type(built) is type(packet)
        if isinstance(packet, EthernetFrame):
            assert all(built.wire_bytes == packet.wire_bytes for built in copies)


def test_header_rewrites_pass_and_leave_the_input_alone():
    with sanitized():
        ipv4 = _packets()["IPv4Packet"]
        udp = dataclasses.replace(ipv4, proto=IP_PROTO_UDP, payload=_packets()["UDPDatagram"])
        row = (MAC(7), MAC(8), IPv4("192.0.2.1"), IPv4("192.0.2.2"), 81, 82, 83, 84)
        for frame in (EthernetFrame(MAC(1), MAC(2), ETH_TYPE_IP, ipv4),
                      EthernetFrame(MAC(1), MAC(2), ETH_TYPE_IP, udp),
                      EthernetFrame(MAC(1), MAC(2), ETH_TYPE_ARP, _packets()["ArpPacket"])):
            before = copy.deepcopy(frame)
            out = frame.rewrite_headers(row)
            assert out.dst == MAC(8) and out.wire_bytes == frame.wire_bytes
            assert frame == before


def test_a_packet_store_works_again_after_uninstall():
    outer = active_sanitizer()  # suspend REPRO_SANITIZE=1 if present
    if outer is not None:
        outer.uninstall()
    try:
        sanitizer = Sanitizer().install()
        packets = _packets()
        with pytest.raises(SanitizerError):
            packets["TCPSegment"].seq = 1
        sanitizer.uninstall()
        for packet in packets.values():
            setattr(packet, packet.__slots__[0], "stored")
            assert getattr(packet, packet.__slots__[0]) == "stored"
    finally:
        if outer is not None:
            outer.install()

"""Unit tests for the host stack: ARP, TCP handshake, messaging, teardown."""

import pytest

from repro.netsim import (
    MAC,
    ConnectionRefused,
    ConnectTimeout,
    HTTPRequest,
    HTTPResponse,
    Network,
    ip,
)
from repro.netsim.host import SYN_RTO_INITIAL, NetworkStateError
from repro.netsim.packet import TCP_MSS


@pytest.fixture
def pair():
    """Two hosts on a direct 1 Gbps / 0.1 ms link."""
    net = Network(seed=1)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, 0, b, 0, latency_s=0.0001, bandwidth_bps=1e9)
    return net, a, b


def echo_listener(body_bytes=64):
    def on_conn(conn):
        def on_msg(c, msg):
            c.send(HTTPResponse(200, body_bytes=body_bytes, body=("echo", msg)), body_bytes)
        conn.on_message = on_msg
    return on_conn


def test_handshake_establishes_both_sides(pair):
    net, a, b = pair
    b.listen(80, echo_listener())
    results = {}

    def client():
        conn = yield a.connect(b.ip, 80)
        results["state"] = conn.state.value
        results["time"] = net.now

    net.sim.spawn(client())
    net.run()
    assert results["state"] == "established"
    # ARP RTT + SYN/SYN-ACK RTT, each ~0.2 ms + serialization
    assert 0.0003 < results["time"] < 0.002


def test_arp_cache_populated_after_traffic(pair):
    net, a, b = pair
    b.listen(80, echo_listener())

    def client():
        conn = yield a.connect(b.ip, 80)
        conn.close()

    net.sim.spawn(client())
    net.run()
    assert a.arp_cache.get(b.ip) == b.mac
    assert b.arp_cache.get(a.ip) == a.mac


def test_second_connect_skips_arp(pair):
    net, a, b = pair
    b.listen(80, echo_listener())
    times = []

    def client():
        conn1 = yield a.connect(b.ip, 80)
        t0 = net.now
        conn2 = yield a.connect(b.ip, 80)
        times.append(net.now - t0)
        conn1.close()
        conn2.close()

    net.sim.spawn(client())
    net.run()
    assert a.stats["arp_requests"] == 1
    # one RTT only (~0.2 ms + serialization)
    assert times[0] < 0.001


def test_request_response_roundtrip(pair):
    net, a, b = pair
    b.listen(80, echo_listener(body_bytes=500))
    results = {}

    def client():
        conn = yield a.connect(b.ip, 80)
        resp = yield conn.request(HTTPRequest(method="GET", path="/x"), 120)
        results["resp"] = resp
        conn.close()

    net.sim.spawn(client())
    net.run()
    assert results["resp"].status == 200
    assert results["resp"].body[0] == "echo"
    assert results["resp"].body[1].path == "/x"


def test_large_message_segmented_and_reassembled(pair):
    net, a, b = pair
    received = {}

    def on_conn(conn):
        def on_msg(c, msg):
            received["msg"] = msg
            received["time"] = net.now
            c.send(HTTPResponse(200), 0)
        conn.on_message = on_msg

    b.listen(80, on_conn)
    size = 10 * TCP_MSS + 7

    def client():
        conn = yield a.connect(b.ip, 80)
        yield conn.request(HTTPRequest(method="POST", body_bytes=size), size)
        conn.close()

    net.sim.spawn(client())
    net.run()
    assert received["msg"].body_bytes == size


def test_zero_byte_message_delivered(pair):
    net, a, b = pair
    b.listen(80, echo_listener())
    results = {}

    def client():
        conn = yield a.connect(b.ip, 80)
        resp = yield conn.request("ping", 0)
        results["resp"] = resp
        conn.close()

    net.sim.spawn(client())
    net.run()
    assert results["resp"].status == 200


def test_connect_to_closed_port_refused(pair):
    net, a, b = pair
    outcome = {}

    def client():
        try:
            yield a.connect(b.ip, 9999)
        except ConnectionRefused:
            outcome["refused_at"] = net.now

    net.sim.spawn(client())
    net.run()
    assert "refused_at" in outcome
    assert outcome["refused_at"] < 0.01  # refused within one RTT, no retries
    assert b.stats["rst_sent"] == 1


def test_connect_timeout_when_peer_unreachable():
    net = Network(seed=1)
    a = net.add_host("a")
    b = net.add_host("b")
    link = net.connect(a, 0, b, 0)
    link.set_up(False)
    outcome = {}

    def client():
        try:
            yield a.connect(b.ip, 80)
        except ConnectTimeout:
            outcome["at"] = net.now

    net.sim.spawn(client())
    net.run()
    assert "at" in outcome
    # 6 retries with doubling backoff: 1+2+4+8+16+32 = 63 s, but ARP is the
    # blocker here -> SYN never sent... connect still times out via SYN RTO
    # machinery only if SYN was emitted; ARP-blocked packets silently queue,
    # so the timeout must still fire. It does because the SYN timer starts
    # at connect time regardless of ARP state.
    assert outcome["at"] >= SYN_RTO_INITIAL * (2 ** 6 - 1) - 1


def test_syn_retransmission_when_synack_delayed():
    """A listener that appears 1.5 s late still gets connected to, via SYN
    retransmission (models a service scaled up while the client waits)."""
    net = Network(seed=1)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, 0, b, 0)

    # NB: port closed initially -> first SYN gets RST. Make the host quietly
    # drop instead by taking the link down, then bring it (and the
    # listener) up at t=1.5 s.
    link = net.links[0]
    link.set_up(False)
    outcome = {}

    def enable():
        b.listen(80, echo_listener())
        link.set_up(True)

    net.sim.schedule(1.5, enable)

    def client():
        conn = yield a.connect(b.ip, 80)
        outcome["established_at"] = net.now
        conn.close()

    net.sim.spawn(client())
    net.run()
    # SYNs queue behind the unresolved ARP; the 2.0 s ARP retry resolves
    # (link restored at 1.5 s) and flushes them, handshake completes ~2.0 s.
    assert 1.9 < outcome["established_at"] < 2.2
    assert a.stats["syn_retransmits"] >= 1


def test_close_releases_connection_state(pair):
    net, a, b = pair
    b.listen(80, echo_listener())

    def client():
        conn = yield a.connect(b.ip, 80)
        yield conn.request(HTTPRequest(), 100)
        conn.close()
        yield conn.closed

    net.sim.spawn(client())
    net.run()
    assert a.connection_count == 0
    assert b.connection_count == 0


def test_concurrent_connections_demuxed(pair):
    net, a, b = pair
    b.listen(80, echo_listener())
    results = []

    def client(tag):
        conn = yield a.connect(b.ip, 80)
        resp = yield conn.request(HTTPRequest(path=f"/{tag}"), 100)
        results.append((tag, resp.body[1].path))
        conn.close()

    for tag in range(5):
        net.sim.spawn(client(tag))
    net.run()
    assert sorted(results) == [(i, f"/{i}") for i in range(5)]


def test_listen_conflict_rejected(pair):
    net, a, b = pair
    b.listen(80, echo_listener())
    with pytest.raises(ValueError):
        b.listen(80, echo_listener())


def test_unlisten_then_refused(pair):
    net, a, b = pair
    b.listen(80, echo_listener())
    b.unlisten(80)
    outcome = {}

    def client():
        try:
            yield a.connect(b.ip, 80)
        except ConnectionRefused:
            outcome["refused"] = True

    net.sim.spawn(client())
    net.run()
    assert outcome.get("refused")


def test_udp_datagram_delivery(pair):
    net, a, b = pair
    got = []
    b.listen_udp(53, lambda src, dg: got.append((src, dg.payload)))
    a.send_udp(b.ip, 53, "query", 48)
    net.run()
    assert got == [(a.ip, "query")]


def test_gateway_routing_on_off_subnet():
    """A host with a /24 and a gateway ARPs the gateway for off-subnet IPs."""
    net = Network(seed=1)
    gw_ip = net.alloc_ip()
    a = net.add_host("a", gateway=gw_ip, prefix_len=32)  # everything off-subnet
    router = net.add_host("router", ip_addr=gw_ip)
    net.connect(a, 0, router, 0)
    a.send_udp(__import__("repro.netsim", fromlist=["ip"]).ip("8.8.8.8"), 53, "x", 10)
    net.run()
    # ARP request went to the gateway's IP, not 8.8.8.8
    assert a.arp_cache.get(gw_ip) == router.mac


def test_on_link_destinations_are_arped_directly():
    """Inside the prefix the next hop is the destination itself; the mask
    follows a later ``prefix_len`` change."""
    net = Network(seed=1)
    gw_ip = net.alloc_ip()
    a = net.add_host("a", gateway=gw_ip, prefix_len=24)
    b = net.add_host("b")
    net.connect(a, 0, b, 0)
    a.send_udp(b.ip, 53, "x", 10)
    net.run()
    assert a.arp_cache.get(b.ip) == b.mac and gw_ip not in a.arp_cache
    a.prefix_len = 0  # everything on-link, the gateway is never ARPed
    a.send_udp(ip("8.8.8.8"), 53, "x", 10)
    assert ip("8.8.8.8") in a._arp_pending and gw_ip not in a._arp_pending


@pytest.mark.parametrize("bad", [33, -1])
def test_bad_prefix_length_rejected_at_construction(bad):
    net = Network(seed=1)
    with pytest.raises(ValueError, match="prefix length"):
        net.add_host("a", prefix_len=bad)
    host = net.add_host("b", prefix_len=24)
    with pytest.raises(ValueError, match="prefix length"):
        host.prefix_len = bad
    assert host.prefix_len == 24


def test_send_without_a_link_raises_network_state_error():
    net = Network(seed=1)
    a = net.add_host("a", prefix_len=24)
    a.arp_cache[ip("10.0.0.200")] = MAC(7)
    with pytest.raises(NetworkStateError, match="no link attached"):
        a.send_udp(ip("10.0.0.200"), 53, "x", 10)

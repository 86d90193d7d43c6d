"""Surgical microflow revalidation vs the table's own reference scan.

The switch's microflow cache must be *behaviourally invisible* — same
forwards, same drops, same per-rule counters as looking every packet up
from scratch — while keeping unrelated cached flows warm across table
churn. The randomized differential below drives one switch through >10k
mutation/packet interleavings, checks every single forward/drop against the
table's counter-free reference scan (``lookup_linear`` — the code path a
cache miss ultimately answers from), and audits after every step that the
cache never holds an answer that scan would not give.
"""

import random

import pytest

from repro.netsim import ETH_TYPE_IP, EthernetFrame, IPv4Packet, Network, TCPSegment, ip, mac
from repro.netsim.packet import IP_PROTO_TCP
from repro.openflow import FlowEntry, Match, OpenFlowSwitch, OutputAction, extract_fields


def tcp_frame(src="10.0.0.1", dst="1.2.3.4", dport=80):
    seg = TCPSegment(src_port=40000, dst_port=dport)
    pkt = IPv4Packet(src=ip(src), dst=ip(dst), proto=IP_PROTO_TCP, payload=seg)
    return EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_IP, payload=pkt)


def make_switch():
    net = Network(seed=0)
    sw = OpenFlowSwitch(net.sim, "sw", dpid=1)
    net.add_device(sw)
    return net, sw


def make_match(dst=None, src=None):
    conditions = {"eth_type": 0x0800}
    if src is not None:
        conditions["ipv4_src"] = src
    if dst is not None:
        conditions["ipv4_dst"] = dst
    return Match(**conditions)


def flow(dst=None, src=None, priority=10, port=1, **kwargs):
    return FlowEntry(match=make_match(dst, src), priority=priority,
                     actions=[OutputAction(port)], **kwargs)


def pump(net, sw, frame, n=1):
    for _ in range(n):
        sw.on_frame(2, frame)
    net.sim.run()


def audit(sw):
    """The cache invariant: every cached answer — positive or
    negative — is exactly what the table's reference scan gives now."""
    for key, entry in sw._microflow.items():
        assert sw.table.lookup_linear(dict(key)) is entry, dict(key)


# --------------------------------------------------------- directed behaviour


class TestSurgicalEviction:
    def test_unrelated_install_keeps_cache_warm(self):
        net, sw = make_switch()
        sw.table.install(flow(dst="1.2.3.4"))
        frame = tcp_frame()
        pump(net, sw, frame, n=2)  # miss + hit
        sw.table.install(flow(dst="5.6.7.8"))  # unrelated churn
        pump(net, sw, frame, n=2)
        assert (sw.microflow_misses, sw.microflow_hits) == (1, 3)
        assert sw.mf_evictions == 0
        assert sw.mf_flushes == 0

    def test_delete_evicts_exactly_the_answered_packets(self):
        net, sw = make_switch()
        sw.table.install(flow(dst="1.2.3.4"))
        sw.table.install(flow(dst="5.6.7.8"))
        a, b = tcp_frame(dst="1.2.3.4"), tcp_frame(dst="5.6.7.8")
        pump(net, sw, a, n=2)
        pump(net, sw, b, n=2)
        sw.table.delete(Match(eth_type=0x0800, ipv4_dst="1.2.3.4"))
        assert sw.mf_evictions == 1
        dropped_before = sw.packets_dropped
        pump(net, sw, a)  # re-misses, now a drop
        pump(net, sw, b)  # still warm
        assert sw.packets_dropped == dropped_before + 1
        assert (sw.microflow_misses, sw.microflow_hits) == (3, 3)

    def test_delete_spares_cached_drops(self):
        """A removal can only invalidate keys whose winner it was — a cached
        negative answer survives any delete."""
        net, sw = make_switch()
        sw.table.install(flow(dst="1.2.3.4"))
        hit, miss = tcp_frame(dst="1.2.3.4"), tcp_frame(dst="9.9.9.9")
        pump(net, sw, hit)
        pump(net, sw, miss)  # cached drop
        sw.table.delete(Match(eth_type=0x0800, ipv4_dst="1.2.3.4"))
        pump(net, sw, miss, n=2)
        assert sw.mf_evictions == 1  # only the positive entry went
        assert sw.microflow_hits == 2

    def test_install_overrides_cached_drop(self):
        net, sw = make_switch()
        frame = tcp_frame(dst="1.2.3.4")
        pump(net, sw, frame, n=2)  # cached negative
        e = flow(dst="1.2.3.4")
        sw.table.install(e)
        assert sw.mf_evictions == 1
        pump(net, sw, frame)
        assert e.packet_count == 1

    def test_src_exact_install_uses_src_group(self):
        net, sw = make_switch()
        sw.table.install(flow(priority=1))  # match-all fallback... flushes
        # seed two flows from different sources
        a = tcp_frame(src="10.0.0.1", dst="1.2.3.4")
        b = tcp_frame(src="10.0.0.2", dst="1.2.3.4")
        pump(net, sw, a)
        pump(net, sw, b)
        sw.table.install(flow(src="10.0.0.1", priority=50, port=3))
        assert sw.mf_evictions == 1  # only 10.0.0.1's cached answer
        pump(net, sw, b)
        assert sw.microflow_hits == 1

    def test_wildcard_install_flushes(self):
        """A rule exact in neither src nor dst can match anything — the
        only safe surgical answer is a full flush."""
        net, sw = make_switch()
        sw.table.install(flow(dst="1.2.3.4"))
        pump(net, sw, tcp_frame(dst="1.2.3.4"))
        sw.table.install(flow(priority=99, port=2))  # match-all
        assert sw.mf_flushes == 1
        assert len(sw._microflow) == 0

    def test_idle_expiry_evicts_only_its_flow(self):
        net, sw = make_switch()
        sw.table.install(flow(dst="1.2.3.4", idle_timeout=1.0))
        sw.table.install(flow(dst="5.6.7.8"))
        a, b = tcp_frame(dst="1.2.3.4"), tcp_frame(dst="5.6.7.8")
        pump(net, sw, a)
        pump(net, sw, b)
        net.sim.schedule(5.0, lambda: None)
        net.sim.run()  # idle timer fired; hook evicted a's cached answer
        assert sw.mf_evictions == 1
        dropped_before = sw.packets_dropped
        pump(net, sw, a)
        pump(net, sw, b)
        assert sw.packets_dropped == dropped_before + 1
        assert sw.microflow_hits == 1  # b stayed warm across the expiry

    def test_replacement_install_repoints_the_cache(self):
        """Same (match, priority) reinstall fires removed-then-installed;
        the cache must answer with the new entry afterwards."""
        net, sw = make_switch()
        old = flow(dst="1.2.3.4", port=1)
        sw.table.install(old)
        frame = tcp_frame(dst="1.2.3.4")
        pump(net, sw, frame, n=2)
        new = flow(dst="1.2.3.4", port=7)
        sw.table.install(new)
        pump(net, sw, frame)
        assert new.packet_count == 1
        assert old.packet_count == 2
        audit(sw)

    def test_stats_expose_surgical_counters(self):
        net, sw = make_switch()
        stats = sw.stats()
        assert stats["mf_evictions"] == 0
        assert stats["mf_flushes"] == 0


# ------------------------------------------------------ randomized differential


DSTS = [f"1.2.3.{i}" for i in range(1, 7)]
SRCS = [f"10.0.0.{i}" for i in range(1, 5)]
PORTS = (80, 443)


def _random_match(rng):
    shape = rng.random()
    if shape < 0.40:
        return dict(dst=rng.choice(DSTS))
    if shape < 0.70:
        return dict(src=rng.choice(SRCS), dst=rng.choice(DSTS))
    if shape < 0.90:
        return dict(src=rng.choice(SRCS))
    return {}


def _drive_differential(seed, steps):
    """Random packets/installs/deletes/expiries through one switch, every
    disposition checked against the reference scan."""
    rng = random.Random(seed)
    net, sw = make_switch()
    expected_packets = {}  # entry -> packets the reference scan gave it
    for step in range(steps):
        op = rng.random()
        if op < 0.68:
            frame = tcp_frame(src=rng.choice(SRCS), dst=rng.choice(DSTS),
                              dport=rng.choice(PORTS))
            winner = sw.table.lookup_linear(extract_fields(frame, 2))
            forwarded, dropped = sw.packets_forwarded, sw.packets_dropped
            pump(net, sw, frame)
            if winner is None:
                dropped += 1
            else:
                forwarded += 1
                expected_packets[winner] = expected_packets.get(winner, 0) + 1
            assert (sw.packets_forwarded, sw.packets_dropped) == \
                   (forwarded, dropped), f"step {step}"
        elif op < 0.84:
            spec = _random_match(rng)
            sw.table.install(flow(priority=rng.randint(1, 40),
                                  port=rng.randint(1, 4),
                                  hard_timeout=rng.choice((0.0, 0.0, 0.0, 2.0)),
                                  **spec))
        elif op < 0.96:
            spec = _random_match(rng)
            sw.table.delete(make_match(dst=spec.get("dst"),
                                       src=spec.get("src")))
        else:
            net.sim.schedule(1.0, lambda: None)  # advance: hard timeouts fire
            net.sim.run()
        # the cache must match the reference scan exactly after every step
        audit(sw)
    # per-rule counters agree: the same packets hit the same winners
    for entry in sw.table.entries:
        assert entry.packet_count == expected_packets.get(entry, 0)
    return sw


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_differential_cached_vs_reference_scan(seed):
    sw = _drive_differential(seed, steps=3500)
    # sanity: the sequence actually exercised the cache and its eviction
    assert sw.microflow_packets > 1000
    assert sw.mf_evictions > 0
    assert sw.microflow_hits > 0

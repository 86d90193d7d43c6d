"""The hot path's cost budget, pinned as call counts instead of timings.

The paper's bargain is that only a flow's first packet pays for
transparency — one registry decision, one install — and every later packet
rides the installed rules at a constant cost. Each test below states one claim about that cost
and checks it as a count that is *the same at every size*, plus a ceiling
with headroom. The counts come from :func:`tests.callcount.calls`, the unit
the ledger's ``kcalls_per_conv`` is made of; they are exact for a Python
minor version and move between minors, so no test pins one exact value.

These tests live under ``tests/integration`` on purpose: ``REPRO_SANITIZE=1``
re-wraps ``Simulator.run`` and ``FlowMemory`` for the suites it audits,
which changes the counts.
"""

import gc
import tracemalloc
from itertools import pairwise

import pytest

from repro.core.registry import ServiceRegistry
from repro.experiments.topologies import build_testbed
from repro.netsim import ETH_TYPE_IP, EthernetFrame, IPv4Packet, Network, TCPSegment, ip, mac
from repro.netsim.addresses import IPv4
from repro.netsim.packet import IP_PROTO_TCP, TCPFlags
from repro.openflow import FlowEntry, FlowTable, Match, OutputAction, extract_fields
from repro.openflow.actions import ActionProgram, SetFieldAction, apply_actions_multi
from repro.openflow.constants import OFP_NO_BUFFER
from repro.openflow.messages import PacketIn
from repro.openflow.switch import OpenFlowSwitch
from repro.ryuapp.events import EventOFPPacketIn
from repro.simcore import Simulator
from repro.workloads.cloudprefix import (
    bulk_register,
    synth_cloud_prefixes,
    synth_service_ids,
    synthetic_service,
)

from tests.callcount import calls
from tests.openflow.reference import lookup_linear


def _addr(prefix: str, index: int) -> str:
    return f"{prefix}.{index // 256 % 256}.{index % 256}"


def _one(counts) -> int:
    """The single value every sample of a count took."""
    values = set(counts)
    assert len(values) == 1, sorted(values)
    return values.pop()


# ------------------------------------------------------------ flow table


TABLE_SIZES = (100, 1_000, 10_000)


def _session_match(index: int) -> Match:
    return Match(eth_type=0x0800, ip_proto=6, ipv4_src=_addr("10.0", index),
                 ipv4_dst=_addr("172.16", index), tcp_dst=80)


def _session_fields(index: int) -> dict:
    return {"in_port": 1, "eth_type": 0x0800, "ip_proto": 6,
            "ipv4_src": IPv4(_addr("10.0", index)),
            "ipv4_dst": IPv4(_addr("172.16", index)), "tcp_dst": 80}


@pytest.fixture(scope="module")
def tables():
    """Per size, a table of that many same-priority per-session rules — the
    controller's per-client shape and the linear scan's adversarial case."""
    out = {}
    for size in TABLE_SIZES:
        table = FlowTable(Simulator())
        for index in range(size):
            table.install(FlowEntry(match=_session_match(index), priority=100,
                                    actions=[OutputAction(1)]))
        out[size] = table
    return out


class _CountingAddress:
    """An ``ipv4_dst`` stand-in that answers equality as ``target`` would and
    counts every comparison in a Python frame.

    Interned addresses compare by identity in C, so a scan over real ones
    makes no per-rule call a profile can see. Put in the probe, the stand-in
    receives each rule's reflected ``fast_dst != pkt_dst`` prefilter, which
    makes the scan's per-rule work countable again.
    """

    __slots__ = ("target", "compares")

    def __init__(self, target: IPv4) -> None:
        self.target = target
        self.compares = 0

    def __eq__(self, other: object) -> bool:
        self.compares += 1
        return other is self.target

    def __ne__(self, other: object) -> bool:
        self.compares += 1
        return other is not self.target


class TestFlowTable:
    def test_indexed_lookup_is_flat_where_the_scan_grows(self, tables):
        """Claim: a lookup costs the same at 100 and 10 000 rules, while the
        reference scan pays for every rule ahead of the match."""
        indexed, linear = {}, {}
        for size, table in tables.items():
            probe = _session_fields(size - 1)  # the scan's last rule
            entry = table.lookup(probe)
            assert entry is lookup_linear(table, probe) is not None
            indexed[size] = calls(table.lookup, probe)
            counting = _CountingAddress(probe["ipv4_dst"])
            scan_probe = {**probe, "ipv4_dst": counting}
            assert lookup_linear(table, scan_probe) is entry
            counting.compares = 0
            linear[size] = calls(lookup_linear, table, scan_probe)
            assert counting.compares >= size  # every rule's dst prefilter
        assert _one(indexed.values()) <= 32
        for small, large in pairwise(TABLE_SIZES):
            assert linear[large] - linear[small] >= large - small

    def test_lookup_skips_rules_under_keys_the_packet_cannot_have(self):
        """Claim: a lookup costs the same beside 1 and 1 000 rules that
        outrank its answer but sit under other exact destinations — it
        probes the packet's own (src, dst) keys, not every priority."""
        per_size = []
        for others in (1, 10, 100, 1_000):
            table = FlowTable(Simulator())
            answer = FlowEntry(match=_session_match(0), priority=1,
                               actions=[OutputAction(1)])
            table.install(answer)
            for index in range(others):
                table.install(FlowEntry(
                    match=Match(eth_type=0x0800, ipv4_dst=_addr("192.168", index)),
                    priority=2 + index, actions=[OutputAction(2)]))
            probe = _session_fields(0)
            assert table.lookup(probe) is answer is lookup_linear(table, probe)
            per_size.append(calls(table.lookup, probe))
        assert _one(per_size) <= 4

    def test_churn_goes_through_the_exact_match_index(self, tables):
        """Claim: an install and a strict delete cost the same whatever the
        table holds (overlap check and delete are dict probes, not scans)."""
        churn = Match(eth_type=0x0800, ip_proto=6, ipv4_src="192.168.0.1",
                      ipv4_dst="192.168.1.1", tcp_dst=443)
        installs, deletes = [], []
        for size, table in tables.items():
            for _ in range(3):
                installs.append(calls(table.install, FlowEntry(
                    match=churn, priority=50, actions=[OutputAction(2)])))
                deletes.append(calls(table.delete, churn, True, 50))
            assert len(table) == size
        assert _one(installs) <= 24
        assert _one(deletes) <= 30


# ---------------------------------------------------------- switch path


def _forwarding_switch(flows: int):
    """A switch with ``flows`` exact-match dst rules and one TCP frame per
    rule: ``(sim, switch, frames)``."""
    sim = Simulator()
    switch = OpenFlowSwitch(sim, "budget-sw", dpid=1)
    frames = []
    for index in range(flows):
        dst = _addr("172.16", index)
        switch.table.install(FlowEntry(
            match=Match(eth_type=0x0800, ip_proto=6, ipv4_dst=dst, tcp_dst=80),
            priority=100, actions=[OutputAction(1)]))
        pkt = IPv4Packet(src=ip("10.0.0.1"), dst=ip(dst), proto=IP_PROTO_TCP,
                         payload=TCPSegment(src_port=40000, dst_port=80))
        frames.append(EthernetFrame(src=mac(1), dst=mac(2),
                                    ethertype=ETH_TYPE_IP, payload=pkt))
    return sim, switch, frames


class TestSwitchFastPath:
    def test_a_forwarded_frame_costs_the_same_at_every_size(self):
        """Claim: forwarding a frame — extract, one table lookup, touch,
        actions — costs the same with 16, 256 or 4 000 flows installed."""
        per_size = []
        for flows in (16, 256, 4_000):
            sim, switch, frames = _forwarding_switch(flows)
            per_size.append(_one(calls(switch.on_frame, 2, frame)
                                 for frame in frames))
            assert switch.packets_forwarded == flows
            assert switch.table.hits == flows
            sim.run()
        assert _one(per_size) <= 16


#: the address host a sends to in the NAT case: on a's subnet, held by no host
_VIRTUAL_IP = ip("10.0.0.200")


def _primed_pair():
    """Host a -> switch -> host b over two links, the ARP cache and the
    forwarding rules already in place: ``(sim, a, b, switch)``. Frames to
    ``b`` are forwarded as they are; frames to ``_VIRTUAL_IP`` are NAT-
    rewritten to ``b`` (eth_dst, ipv4_dst, tcp_dst), as a redirected flow's
    are."""
    net = Network(seed=0)
    a = net.add_host("a", ip_addr=ip("10.0.0.1"), prefix_len=24)
    b = net.add_host("b", ip_addr=ip("10.0.0.2"), prefix_len=24)
    switch = OpenFlowSwitch(net.sim, "budget-sw", dpid=1)
    net.add_device(switch)
    net.connect(a, 0, switch, 1)
    net.connect(b, 0, switch, 2)
    switch.table.install(FlowEntry(match=Match(eth_type=0x0800, ipv4_dst=b.ip),
                                   priority=100, actions=[OutputAction(2)]))
    switch.table.install(FlowEntry(
        match=Match(eth_type=0x0800, ipv4_dst=_VIRTUAL_IP), priority=100,
        actions=[SetFieldAction("eth_dst", b.mac), SetFieldAction("ipv4_dst", b.ip),
                 SetFieldAction("tcp_dst", 8080), OutputAction(2)]))
    a.arp_cache[b.ip] = b.mac
    a.arp_cache[_VIRTUAL_IP] = mac("02:00:00:00:00:c8")
    return net.sim, a, b, switch


class TestFramePath:
    def test_a_primed_frame_costs_a_constant_from_host_to_host(self):
        """Claim: one TCP segment from a primed host through the switch to
        the other host is the same count every time, under a ceiling. The
        chain: the host's send (``send_ip`` -> ``_tx_ip``, two builds), two
        link hops of three calls each (``Device.transmit``,
        ``Link.transmit``, ``Link._deliver``) plus the kernel's
        ``schedule``/``heappush``/``heappop`` per event, the switch's frame
        (extract, one lookup, ``touch``, ``_execute``, which schedules the
        transmit itself) and the receiving host's ``on_frame`` ->
        ``_on_tcp``. The frame is sized once, when it is built."""
        sim, a, b, switch = _primed_pair()
        # An RST for no connection: the receiver drops it without a reply.
        rst = TCPSegment(src_port=40000, dst_port=80, flags=TCPFlags.RST)

        def one_frame() -> None:
            a.send_ip(b.ip, IP_PROTO_TCP, rst)
            sim.run()

        counts = [calls(one_frame) for _ in range(8)]
        assert switch.packets_forwarded == 8 and b.rx_frames == 8
        assert _one(counts) <= 33

    def test_a_nat_rewritten_frame_costs_a_constant(self):
        """Claim: the same segment sent to a virtual address the switch
        NAT-rewrites to the other host (three layers written) costs the
        plain frame's chain plus one flat ``rewrite_headers`` call and one
        ``object.__new__`` per rewritten layer — no per-layer rewrite or
        action call."""
        sim, a, b, switch = _primed_pair()
        rst = TCPSegment(src_port=40000, dst_port=80, flags=TCPFlags.RST)

        def one_frame() -> None:
            a.send_ip(_VIRTUAL_IP, IP_PROTO_TCP, rst)
            sim.run()

        counts = [calls(one_frame) for _ in range(8)]
        assert switch.packets_forwarded == 8 and b.rx_frames == 8
        assert _one(counts) <= 37
        assert b.stats["dropped_not_mine"] == 0  # rewritten to b's MAC and IP


def _noop() -> None:
    pass


class TestEventLoop:
    def test_an_event_costs_its_callback_and_one_pop(self):
        """Claim: ``schedule`` is a constant and ``run`` over n no-op events
        makes exactly two calls per event (``heappop`` and the callback)."""
        schedules, overheads = [], []
        for events in (100, 1_000, 10_000):
            sim = Simulator()
            schedules.extend(calls(sim.schedule, index * 1e-6, _noop)
                             for index in range(events))
            overheads.append(calls(sim.run) - 2 * events)
            assert sim.events_executed == events
        assert _one(schedules) <= 3
        assert _one(overheads) <= 3


# -------------------------------------------------------------- registry


class TestRegistryDecision:
    def test_decision_cost_is_flat_in_registry_size(self):
        """Claim: the packet-in decision (``lookup_prefix``, hit and miss)
        and its revalidation token (``generation_of``) cost the same beside
        1 000 and 20 000 registered services."""
        hits, misses, tokens = [], [], []
        absent = [IPv4(f"203.0.113.{index}") for index in range(64)]  # TEST-NET-3
        for size in (1_000, 20_000):
            prefixes = synth_cloud_prefixes(seed=5, count=max(16, size // 64))
            service_ids = synth_service_ids(6, size, prefixes, udp_share=0.2)
            registry = ServiceRegistry()
            bulk_register(registry, service_ids)
            hits.extend(calls(registry.lookup_prefix, sid.addr, sid.port,
                              sid.protocol) for sid in service_ids[:64])
            misses.extend(calls(registry.lookup_prefix, addr, 80, "TCP")
                          for addr in absent)
            # cold: each identity's first token is computed, not cached
            tokens.extend(calls(registry.generation_of, sid.addr, sid.port,
                                sid.protocol) for sid in service_ids[64:128])
        assert _one(hits) <= 6
        assert _one(misses) <= 8
        assert _one(tokens) <= 10


# ------------------------------------------------------ controller slow path


def _slow_path_testbed():
    """A warm testbed whose one client already fetched the service, plus a
    reusable packet-in for a fresh SYN of that client: every handled copy
    is a FlowMemory re-miss — no dispatcher run, the redirection rebuilt
    and reinstalled."""
    tb = build_testbed(seed=51, n_clients=1, cluster_types=("docker",),
                       memory_idle_timeout_s=3600.0)
    svc = tb.register_catalog_service("nginx")
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], svc)
    tb.run(until=tb.sim.now + 60.0)
    assert warm.done and warm.exception is None
    request = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
    tb.run(until=tb.sim.now + 5.0)
    assert request.done and request.result.ok

    client = tb.clients[0]
    seg = TCPSegment(src_port=40001, dst_port=svc.service_id.port,
                     flags=TCPFlags.SYN)
    pkt = IPv4Packet(src=client.ip, dst=svc.service_id.addr,
                     proto=IP_PROTO_TCP, payload=seg)
    frame = EthernetFrame(src=client.mac, dst=tb.controller.cfg.vgw_mac,
                          ethertype=ETH_TYPE_IP, payload=pkt)
    msg = PacketIn(buffer_id=OFP_NO_BUFFER, in_port=1, frame=frame,
                   fields=extract_fields(frame, 1))
    msg.datapath = tb.manager.datapaths[tb.switch.dpid]
    event = EventOFPPacketIn(msg)
    tb.controller.on_packet_in(event)
    tb.run(until=tb.sim.now + 5.0)
    return tb, event


class TestControllerSlowPath:
    def test_memoized_packet_in_costs_a_constant(self):
        """Claim: a packet-in FlowMemory answers costs the same whether 1,
        10 or 100 of its predecessors' FlowMods are still queued."""
        tb, event = _slow_path_testbed()
        stats = tb.controller.stats
        dispatches = stats["service_dispatches"]
        remembered = stats["service_hits_memory"]
        counts = []
        for burst in (1, 10, 100):
            counts.extend(calls(tb.controller.on_packet_in, event)
                          for _ in range(burst))
            tb.run(until=tb.sim.now + 5.0)
        assert stats["service_dispatches"] == dispatches
        assert stats["service_hits_memory"] - remembered == 111
        assert _one(counts) <= 180

    def test_re_miss_cost_is_unmoved_by_unrelated_churn(self):
        """Claim: with an unrelated service registering or deregistering
        and a foreign client's FlowMemory entry rewritten before every
        packet-in, a re-miss costs exactly what it costs with no churn: the
        service decision is the live registry lookup and the redirection is
        built afresh every time, so there is no memo tier for churn to
        move."""
        tb, event = _slow_path_testbed()
        ctrl = tb.controller
        quiet = calls(ctrl.on_packet_in, event)
        # Churn identities live in the synthetic cloud supernets, disjoint
        # from the testbed's TEST-NET-2 services and client range.
        churn_sid = synth_service_ids(
            12, 1, synth_cloud_prefixes(seed=11, count=16))[0]
        foreign = IPv4("198.18.0.1")  # RFC 2544 range: not a host
        flow = next(iter(ctrl.memory._flows.values()))
        hot_sid = flow.key[1]
        dispatches = ctrl.stats["service_dispatches"]
        counts = []
        for index in range(200):
            if index % 2:
                ctrl.registry.deregister(churn_sid)
            else:
                ctrl.registry.register_service(synthetic_service(churn_sid))
            ctrl.memory.remember(foreign, hot_sid, flow.cluster, flow.endpoint)
            counts.append(calls(ctrl.on_packet_in, event))
            if index % 50 == 49:
                tb.run(until=tb.sim.now + 5.0)
        assert ctrl.stats["service_dispatches"] == dispatches
        churned = _one(counts)
        assert churned == quiet
        assert churned <= 180


# --------------------------------------------------------- header rewrite


class TestRewriteAllocation:
    def test_nat_rewrite_allocates_under_256_bytes(self):
        """Claim: the 4-field NAT rewrite a redirected flow pays per packet
        allocates at most 256 bytes per output frame it produces (every
        frame retained, so this is allocation churn, not survivor size)."""
        nat = [("ipv4_src", ip("198.51.100.1")), ("tcp_src", 80),
               ("eth_src", mac("02:ed:9e:00:00:01")),
               ("eth_dst", mac("02:ba:00:00:00:01"))]
        program = ActionProgram([SetFieldAction(field, value)
                                 for field, value in nat] + [OutputAction(1)])
        seg = TCPSegment(src_port=8080, dst_port=40000, payload_bytes=615)
        pkt = IPv4Packet(src=ip("10.0.0.7"), dst=ip("10.64.0.2"),
                         proto=IP_PROTO_TCP, payload=seg)
        frame = EthernetFrame(src=mac(3), dst=mac(4), ethertype=ETH_TYPE_IP,
                              payload=pkt)
        for packets in (1_000, 10_000):
            gc.collect()
            retained = []
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for _ in range(packets):
                    for out, _port in apply_actions_multi(frame, program):
                        retained.append(out)
                per_packet = (tracemalloc.get_traced_memory()[0] - base) / packets
            finally:
                tracemalloc.stop()
            assert len(retained) == packets
            assert per_packet <= 256, per_packet

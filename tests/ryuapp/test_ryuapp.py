"""Unit tests for the Ryu-style app framework (manager, events, parser)."""

import pytest

from repro.netsim import ETH_TYPE_IP, EthernetFrame, IPv4Packet, Network, TCPSegment, ip, mac
from repro.netsim.packet import IP_PROTO_TCP
from repro.openflow import ControlChannel, Match, OpenFlowSwitch
from repro.openflow.messages import FlowMod
from repro.ryuapp import (
    MAIN_DISPATCHER,
    AppManager,
    EventOFPFlowRemoved,
    EventOFPPacketIn,
    EventOFPStateChange,
    RyuApp,
    set_ev_cls,
)


def tcp_frame(dport=80):
    seg = TCPSegment(src_port=40000, dst_port=dport)
    pkt = IPv4Packet(src=ip("10.0.0.1"), dst=ip("1.2.3.4"), proto=IP_PROTO_TCP, payload=seg)
    return EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_IP, payload=pkt)


class CollectorApp(RyuApp):
    def __init__(self, manager, **config):
        super().__init__(manager, **config)
        self.packet_ins = []
        self.flow_removed = []
        self.state_changes = []

    @set_ev_cls(EventOFPPacketIn, MAIN_DISPATCHER)
    def on_packet_in(self, ev):
        self.packet_ins.append((self.sim.now, ev.msg))

    @set_ev_cls(EventOFPFlowRemoved, MAIN_DISPATCHER)
    def on_flow_removed(self, ev):
        self.flow_removed.append(ev.msg)

    @set_ev_cls(EventOFPStateChange, MAIN_DISPATCHER)
    def on_state(self, ev):
        self.state_changes.append(ev.datapath)


@pytest.fixture
def rig():
    net = Network(seed=0)
    sw = OpenFlowSwitch(net.sim, "sw", dpid=7)
    sw.install_table_miss()
    net.add_device(sw)
    mgr = AppManager(net.sim, service_time_s=0.0005)
    app = mgr.register(CollectorApp)
    chan = ControlChannel(net.sim, latency_s=0.001)
    mgr.connect_switch(sw, chan)
    return net, sw, mgr, app, chan


def test_state_change_fired_on_connect(rig):
    net, sw, mgr, app, _ = rig
    net.run()
    assert len(app.state_changes) == 1
    assert app.state_changes[0].id == 7


def test_packet_in_reaches_handler_with_datapath(rig):
    net, sw, mgr, app, _ = rig
    sw.deliver(1, tcp_frame())
    net.run()
    assert len(app.packet_ins) == 1
    _, msg = app.packet_ins[0]
    assert msg.datapath.id == 7
    assert msg.fields["tcp_dst"] == 80


def test_handler_latency_includes_channel_and_service_time(rig):
    net, sw, mgr, app, _ = rig
    net.run()  # drain state-change event
    t0 = net.now
    sw.deliver(1, tcp_frame())
    net.run()
    t, _ = app.packet_ins[0]
    # 1 ms channel latency + 0.5 ms service time
    assert t - t0 == pytest.approx(0.0015, abs=1e-9)


def test_events_serialize_at_service_time(rig):
    net, sw, mgr, app, _ = rig
    net.run()
    for i in range(4):
        sw.deliver(1, tcp_frame(dport=80 + i))
    net.run()
    times = [t for t, _ in app.packet_ins]
    deltas = [round(b - a, 9) for a, b in zip(times, times[1:], strict=False)]
    assert all(d == pytest.approx(0.0005) for d in deltas)
    assert mgr.events_dispatched >= 5  # 4 packet-ins + state change
    assert mgr.max_queue_depth >= 2


def test_send_msg_roundtrip_via_datapath(rig):
    net, sw, mgr, app, chan = rig
    net.run()
    datapath = mgr.datapaths[7]
    parser = datapath.ofproto_parser
    match = parser.OFPMatch(eth_type=ETH_TYPE_IP, tcp_dst=80)
    datapath.send_msg(parser.OFPFlowMod(datapath, match=match, priority=5,
                                        actions=[parser.OFPActionOutput(2)]))
    net.run()
    assert len(sw.table) == 2  # table-miss + new


def test_parser_set_field_requires_single_kwarg(rig):
    net, sw, mgr, app, _ = rig
    parser = mgr.datapaths[7].ofproto_parser
    with pytest.raises(ValueError):
        parser.OFPActionSetField(ipv4_dst="1.1.1.1", tcp_dst=80)
    action = parser.OFPActionSetField(ipv4_dst="9.9.9.9")
    assert action.field == "ipv4_dst"


def test_parser_flow_mod_defaults(rig):
    net, sw, mgr, app, _ = rig
    datapath = mgr.datapaths[7]
    parser = datapath.ofproto_parser
    fm = parser.OFPFlowMod(datapath)
    assert isinstance(fm, FlowMod)
    assert fm.match == Match()
    assert fm.actions == []


def test_flow_removed_event(rig):
    net, sw, mgr, app, chan = rig
    datapath = mgr.datapaths[7]
    parser, ofp = datapath.ofproto_parser, datapath.ofproto
    datapath.send_msg(parser.OFPFlowMod(
        datapath, match=parser.OFPMatch(tcp_dst=80), priority=5,
        actions=[parser.OFPActionOutput(1)], idle_timeout=1.0,
        flags=ofp.OFPFF_SEND_FLOW_REM))
    net.run()
    assert len(app.flow_removed) == 1
    assert app.flow_removed[0].idle_timeout == 1.0


def test_app_spawn_runs_process(rig):
    net, sw, mgr, app, _ = rig
    done = []

    def task():
        yield net.sim.timeout(1.0)
        done.append(net.now)

    app.spawn(task())
    net.run()
    assert done == [1.0]


def test_manager_app_lookup(rig):
    net, sw, mgr, app, _ = rig
    assert mgr.app(CollectorApp) is app

    class Other(RyuApp):
        pass

    assert mgr.app(Other) is None


def test_multiple_apps_both_receive_events(rig):
    net, sw, mgr, app, _ = rig
    second = mgr.register(CollectorApp)
    sw.deliver(1, tcp_frame())
    net.run()
    assert len(app.packet_ins) == 1
    assert len(second.packet_ins) == 1


class FlakyApp(RyuApp):
    """Its first packet-in handler raises; every later one records."""

    def __init__(self, manager, **config):
        super().__init__(manager, **config)
        self.raised = False
        self.tcp_dsts = []

    @set_ev_cls(EventOFPPacketIn, MAIN_DISPATCHER)
    def on_packet_in(self, ev):
        if not self.raised:
            self.raised = True
            raise RuntimeError("handler bug")
        self.tcp_dsts.append(ev.msg.fields["tcp_dst"])


def test_handler_exception_fails_loud_without_wedging_the_pump():
    net = Network(seed=0)
    sw = OpenFlowSwitch(net.sim, "sw", dpid=7)
    sw.install_table_miss()
    net.add_device(sw)
    mgr = AppManager(net.sim, service_time_s=0.0005)
    app = mgr.register(FlakyApp)
    mgr.connect_switch(sw, ControlChannel(net.sim, latency_s=0.001))
    net.run()
    for dport in (80, 81, 82):
        sw.deliver(1, tcp_frame(dport=dport))
    with pytest.raises(RuntimeError, match="handler bug"):
        net.run()
    assert len(mgr._queue) == 2  # queued behind the failed event
    net.run()
    assert app.tcp_dsts == [81, 82]
    sw.deliver(1, tcp_frame(dport=90))
    net.run()
    assert app.tcp_dsts == [81, 82, 90]

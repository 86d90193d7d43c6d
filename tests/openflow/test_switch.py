"""Unit tests for the OpenFlow switch datapath + control channel."""

import pytest

from repro.netsim import ETH_TYPE_IP, EthernetFrame, IPv4Packet, Network, TCPSegment, ip, mac
from repro.netsim.device import Device
from repro.netsim.packet import IP_PROTO_TCP
from repro.openflow import (
    OFP_NO_BUFFER,
    OFPFF_SEND_FLOW_REM,
    BarrierReply,
    BarrierRequest,
    ControlChannel,
    EchoReply,
    EchoRequest,
    FlowMod,
    FlowRemoved,
    FlowStatsReply,
    FlowStatsRequest,
    Match,
    OpenFlowSwitch,
    OutputAction,
    PacketIn,
    PacketOut,
    SetFieldAction,
)
from repro.openflow.constants import OFPFC_DELETE, OFPP_ANY, OFPP_FLOOD


class Sink(Device):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def on_frame(self, port_no, frame):
        self.received.append((self.sim.now, frame))


class RecordingController:
    """Bare ControllerEndpoint capturing messages."""

    def __init__(self):
        self.messages = []

    def on_switch_message(self, switch, message):
        self.messages.append((switch, message))


def tcp_frame(dst="1.2.3.4", dport=80):
    seg = TCPSegment(src_port=40000, dst_port=dport)
    pkt = IPv4Packet(src=ip("10.0.0.1"), dst=ip(dst), proto=IP_PROTO_TCP, payload=seg)
    return EthernetFrame(src=mac(1), dst=mac(2), ethertype=ETH_TYPE_IP, payload=pkt)


@pytest.fixture
def setup():
    net = Network(seed=0)
    sw = OpenFlowSwitch(net.sim, "sw", dpid=1)
    net.add_device(sw)
    sinks = [Sink(net.sim, f"h{i}") for i in range(3)]
    for i, sink in enumerate(sinks):
        net.connect(sink, 0, sw, i + 1, latency_s=0.0)
    ctrl = RecordingController()
    chan = ControlChannel(net.sim, latency_s=0.001)
    sw.connect_controller(chan, ctrl)
    return net, sw, sinks, ctrl, chan


def test_no_table_miss_entry_drops(setup):
    net, sw, sinks, ctrl, _ = setup
    sw.deliver(1, tcp_frame())
    net.run()
    assert sw.packets_dropped == 1
    assert ctrl.messages == []


def test_table_miss_sends_packet_in_with_buffer(setup):
    net, sw, sinks, ctrl, _ = setup
    sw.install_table_miss()
    frame = tcp_frame()
    sw.deliver(1, frame)
    net.run()
    assert len(ctrl.messages) == 1
    _, message = ctrl.messages[0]
    assert isinstance(message, PacketIn)
    assert message.buffer_id != OFP_NO_BUFFER
    assert message.in_port == 1
    assert message.fields["tcp_dst"] == 80
    assert sw.buffered_count == 1


def test_packet_in_latency_is_channel_latency(setup):
    net, sw, sinks, ctrl, chan = setup
    sw.install_table_miss()
    times = []
    original = ctrl.on_switch_message

    def timed(switch, message):
        times.append(net.sim.now)
        original(switch, message)

    ctrl.on_switch_message = timed
    chan.bind(sw, ctrl)  # rebind with wrapper
    sw.deliver(1, tcp_frame())
    net.run()
    assert times[0] == pytest.approx(0.001, abs=1e-6)


def test_flow_mod_installs_and_forwards(setup):
    net, sw, sinks, ctrl, chan = setup
    match = Match(eth_type=ETH_TYPE_IP, ipv4_dst="1.2.3.4", tcp_dst=80)
    chan.to_switch(FlowMod(match=match, priority=10, actions=[OutputAction(2)]))
    net.run()
    assert len(sw.table) == 1
    sw.deliver(1, tcp_frame())
    net.run()
    assert len(sinks[1].received) == 1  # port 2 == sinks[1]
    assert sw.packets_forwarded == 1


def test_flow_mod_with_buffer_releases_buffered_packet(setup):
    net, sw, sinks, ctrl, chan = setup
    sw.install_table_miss()
    sw.deliver(1, tcp_frame())
    net.run()
    _, packet_in = ctrl.messages[0]
    match = Match(eth_type=ETH_TYPE_IP, ipv4_dst="1.2.3.4", tcp_dst=80)
    chan.to_switch(FlowMod(match=match, priority=10, actions=[OutputAction(3)],
                           buffer_id=packet_in.buffer_id))
    net.run()
    assert sw.buffered_count == 0
    assert len(sinks[2].received) == 1


def test_packet_out_with_buffer(setup):
    net, sw, sinks, ctrl, chan = setup
    sw.install_table_miss()
    sw.deliver(1, tcp_frame())
    net.run()
    _, packet_in = ctrl.messages[0]
    chan.to_switch(PacketOut(buffer_id=packet_in.buffer_id, in_port=1,
                             actions=[OutputAction(2)]))
    net.run()
    assert sw.buffered_count == 0
    assert len(sinks[1].received) == 1


def test_packet_out_stale_buffer_ignored(setup):
    net, sw, sinks, ctrl, chan = setup
    chan.to_switch(PacketOut(buffer_id=9999, in_port=1, actions=[OutputAction(2)]))
    net.run()
    assert sinks[1].received == []


def test_packet_out_with_data_frame(setup):
    net, sw, sinks, ctrl, chan = setup
    chan.to_switch(PacketOut(buffer_id=OFP_NO_BUFFER, in_port=0,
                             actions=[OutputAction(1)], frame=tcp_frame()))
    net.run()
    assert len(sinks[0].received) == 1


def test_flood_excludes_in_port(setup):
    net, sw, sinks, ctrl, chan = setup
    chan.to_switch(FlowMod(match=Match(), priority=1, actions=[OutputAction(OFPP_FLOOD)]))
    net.run()
    sw.deliver(1, tcp_frame())
    net.run()
    assert len(sinks[0].received) == 0  # in port
    assert len(sinks[1].received) == 1
    assert len(sinks[2].received) == 1


#: OFPP_ANY and the OF 1.3 reserved ports this datapath does not implement
#: (TABLE, NORMAL, LOCAL)
UNIMPLEMENTED_PORTS = [OFPP_ANY, 0xFFFFFFF9, 0xFFFFFFFA, 0xFFFFFFFE]


@pytest.mark.parametrize("port", UNIMPLEMENTED_PORTS, ids=["ANY", "TABLE", "NORMAL", "LOCAL"])
def test_output_to_an_unimplemented_reserved_port_drops(setup, port):
    """Counted as a drop and traced, with no transmit scheduled — not
    counted as forwarded and handed to ``transmit`` as an unwired port."""
    net, sw, sinks, ctrl, chan = setup
    net.sim.trace.enabled = True
    chan.to_switch(FlowMod(match=Match(), priority=1,
                           actions=[OutputAction(port), OutputAction(2)]))
    net.run()
    sw.deliver(1, tcp_frame())
    assert net.sim.pending_count() == 1  # port 2's transmit, nothing for the reserved port
    chan.to_switch(PacketOut(buffer_id=OFP_NO_BUFFER, in_port=1,
                             actions=[OutputAction(port)], frame=tcp_frame()))
    net.run()
    assert (sw.packets_forwarded, sw.packets_dropped) == (1, 2)
    assert len(sinks[1].received) == 1
    assert sw.tx_frames == 1
    drops = net.sim.trace.filter(category="of", event="drop-reserved-port")
    assert [record.data["port"] for record in drops] == [port, port]
    assert net.sim.trace.filter(category="net", event="tx-drop") == []


def test_rewrite_flow_rewrites_packet(setup):
    net, sw, sinks, ctrl, chan = setup
    match = Match(eth_type=ETH_TYPE_IP, ipv4_dst="1.2.3.4", tcp_dst=80)
    actions = [
        SetFieldAction("ipv4_dst", "10.0.0.99"),
        SetFieldAction("eth_dst", "02:00:00:00:00:63"),
        SetFieldAction("tcp_dst", 8080),
        OutputAction(2),
    ]
    chan.to_switch(FlowMod(match=match, priority=10, actions=actions))
    net.run()
    sw.deliver(1, tcp_frame())
    net.run()
    _, frame = sinks[1].received[0]
    assert frame.ipv4.dst == ip("10.0.0.99")
    assert frame.tcp.dst_port == 8080
    assert frame.dst == mac("02:00:00:00:00:63")


def test_flow_removed_sent_to_controller(setup):
    net, sw, sinks, ctrl, chan = setup
    chan.to_switch(FlowMod(match=Match(tcp_dst=80), priority=5, actions=[OutputAction(1)],
                           idle_timeout=2.0, flags=OFPFF_SEND_FLOW_REM, cookie=77))
    net.run()
    removed = [m for _, m in ctrl.messages if isinstance(m, FlowRemoved)]
    assert len(removed) == 1
    assert removed[0].cookie == 77
    assert removed[0].duration == pytest.approx(2.0)


def test_flow_mod_delete(setup):
    net, sw, sinks, ctrl, chan = setup
    chan.to_switch(FlowMod(match=Match(tcp_dst=80), priority=5, actions=[OutputAction(1)]))
    net.run()
    assert len(sw.table) == 1
    chan.to_switch(FlowMod(match=Match(), command=OFPFC_DELETE))
    net.run()
    assert len(sw.table) == 0


def test_flow_stats_request_reply(setup):
    net, sw, sinks, ctrl, chan = setup
    chan.to_switch(FlowMod(match=Match(tcp_dst=80), priority=5, actions=[OutputAction(2)]))
    net.run()
    sw.deliver(1, tcp_frame())
    net.run()
    chan.to_switch(FlowStatsRequest(match=Match(), xid=42))
    net.run()
    replies = [m for _, m in ctrl.messages if isinstance(m, FlowStatsReply)]
    assert len(replies) == 1
    assert replies[0].xid == 42
    assert replies[0].stats[0]["packet_count"] == 1


def test_echo_and_barrier(setup):
    net, sw, sinks, ctrl, chan = setup
    chan.to_switch(EchoRequest(payload="ping", xid=1))
    chan.to_switch(BarrierRequest(xid=2))
    net.run()
    kinds = [type(m).__name__ for _, m in ctrl.messages]
    assert "EchoReply" in kinds and "BarrierReply" in kinds


def test_buffer_overflow_falls_back_to_no_buffer(setup):
    net, sw, sinks, ctrl, chan = setup
    sw.buffer_capacity = 2
    sw.install_table_miss()
    for i in range(4):
        sw.deliver(1, tcp_frame(dport=80 + i))
    net.run()
    packet_ins = [m for _, m in ctrl.messages if isinstance(m, PacketIn)]
    assert len(packet_ins) == 4
    buffered = [m for m in packet_ins if m.buffer_id != OFP_NO_BUFFER]
    unbuffered = [m for m in packet_ins if m.buffer_id == OFP_NO_BUFFER]
    assert len(buffered) == 2
    assert len(unbuffered) == 2
    assert all(m.frame is not None for m in unbuffered)
    assert sw.buffer_overflows == 2


def test_disconnected_channel_drops_messages(setup):
    net, sw, sinks, ctrl, chan = setup
    sw.install_table_miss()
    chan.disconnect()
    sw.deliver(1, tcp_frame())
    net.run()
    assert ctrl.messages == []
    chan.reconnect()
    sw.deliver(1, tcp_frame())
    net.run()
    assert len(ctrl.messages) == 1

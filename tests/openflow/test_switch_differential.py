"""The switch's data path vs the reference scan and the reference interpreter.

Every frame ``OpenFlowSwitch.on_frame`` handles is one flow-table lookup.
The randomized differential below drives one switch through >10k
install/delete/idle-expiry/hard-expiry/packet interleavings and checks that
every forward or drop, and every rule's packet and byte counters, are what
the counter-free linear scan (``tests/openflow/reference.py``) picks for
each frame at the moment it arrives, and that the frames it emits are what
the per-field reference interpreter makes of the winner's actions. Every
frame the switch emits — rules out of ports 3 and 4 NAT-rewrite it first —
carries the layered sum of its headers and payload as its stored
``wire_bytes``.

The switch runs a rule's compiled program itself, and compiles a PacketOut's
list the same way: the second differential runs random action lists —
several outputs, ``CONTROLLER``/``IN_PORT``/``FLOOD``/``ALL`` steps, the
empty list — over TCP, UDP and ARP frames through both, and checks each
transmit, packet-in and counter against the reference's outputs.
"""

import random

import pytest

from repro.netsim import ETH_TYPE_IP, EthernetFrame, IPv4Packet, Network, TCPSegment, ip, mac
from repro.netsim.device import Device
from repro.netsim.packet import IP_PROTO_TCP
from repro.openflow import FlowEntry, Match, OpenFlowSwitch, OutputAction, PacketOut, extract_fields
from repro.openflow.actions import SetFieldAction
from repro.openflow.constants import OFP_NO_BUFFER, OFPP_ALL, OFPP_CONTROLLER, OFPP_FLOOD, OFPP_IN_PORT

from tests.netsim.test_packet_model import layered_wire_bytes
from tests.openflow.reference import apply_actions_multi_reference, lookup_linear
from tests.openflow.test_rewrite_fused import (
    LISTS_PER_SEED,
    SWITCH_PORTS,
    _action_list,
    _assert_same_outputs,
    _frames,
)


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


NAT = [SetFieldAction("eth_dst", mac(9)), SetFieldAction("ipv4_dst", ip("192.0.2.1")),
       SetFieldAction("tcp_dst", 8080)]


def flow(dst=None, src=None, priority=10, port=1, **kwargs):
    actions = (NAT if port >= 3 else []) + [OutputAction(port)]
    return FlowEntry(match=make_match(dst, src), priority=priority,
                     actions=actions, **kwargs)


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
    emitted = []
    sw.transmit = lambda port, frame: emitted.append((frame, port))
    installed = []
    expected = {}  # entry -> (packets, bytes) the reference scan gave it
    for step in range(steps):
        op = rng.random()
        if op < 0.68:
            frame = tcp_frame(src=rng.choice(SRCS), dst=rng.choice(DSTS),
                              dport=rng.choice(PORTS))
            winner = lookup_linear(sw.table, extract_fields(frame, 2))
            forwarded, dropped = sw.packets_forwarded, sw.packets_dropped
            before = len(emitted)
            sw.on_frame(2, frame)
            net.sim.run()
            if winner is None:
                dropped += 1
            else:
                forwarded += 1
                packets, nbytes = expected.get(winner, (0, 0))
                expected[winner] = (packets + 1, nbytes + layered_wire_bytes(frame))
                _assert_same_outputs(emitted[before:],
                                     apply_actions_multi_reference(frame, winner.actions))
            assert (sw.packets_forwarded, sw.packets_dropped) == \
                   (forwarded, dropped), f"step {step}"
        elif op < 0.84:
            spec = _random_match(rng)
            entry = flow(priority=rng.randint(1, 40), port=rng.randint(1, 4),
                         idle_timeout=rng.choice((0.0, 0.0, 0.5, 1.5)),
                         hard_timeout=rng.choice((0.0, 0.0, 0.0, 2.0)),
                         **spec)
            sw.table.install(entry)
            installed.append(entry)
        elif op < 0.96:
            spec = _random_match(rng)
            sw.table.delete(make_match(dst=spec.get("dst"),
                                       src=spec.get("src")))
        else:
            net.sim.schedule(1.0, lambda: None)  # advance: timeouts fire
            net.sim.run()
    # per-rule counters agree, removed rules included: the same packets hit
    # the same winners
    for entry in installed:
        assert (entry.packet_count, entry.byte_count) == expected.get(entry, (0, 0))
    assert len(emitted) == sw.packets_forwarded
    for frame, _port in emitted:
        assert frame.wire_bytes == layered_wire_bytes(frame)
    return sw, installed, [frame for frame, _port in emitted]


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_on_frame_agrees_with_reference_scan(seed):
    sw, installed, emitted = _drive_differential(seed, steps=3500)
    # sanity: the sequence forwarded and dropped, and rules left every way
    assert sw.packets_forwarded > 500
    assert sw.packets_dropped > 0
    assert sum(entry.removed for entry in installed) > 0
    assert sw.table.lookups == sw.packets_forwarded + sw.packets_dropped
    assert any(frame.tcp.dst_port == 8080 for frame in emitted)  # NAT-rewritten


class _Sink(Device):
    def on_frame(self, port_no, frame):
        pass


class _PacketIns:
    """A stand-in control channel that keeps what the switch sends up."""

    def __init__(self):
        self.frames = []

    def to_controller(self, message):
        self.frames.append(message.frame)


def _reference_effects(outputs, in_port, ports):
    """What the switch must do for the reference's ``(frame, port)``
    outputs: the ``(frame, port)`` transmits in order, the packet-in frames,
    and the forwarded count (a flood counts once)."""
    transmits, packet_ins, forwarded = [], [], 0
    for frame, port in outputs:
        if port == OFPP_CONTROLLER:
            packet_ins.append((frame, port))
            continue
        forwarded += 1
        if port in (OFPP_FLOOD, OFPP_ALL):
            transmits += [(frame, out) for out in ports if out != in_port or port == OFPP_ALL]
        else:
            transmits.append((frame, in_port if port == OFPP_IN_PORT else port))
    return transmits, packet_ins, forwarded


@pytest.mark.parametrize("seed", range(10))
def test_execute_and_packet_out_agree_with_reference(seed):
    rng = random.Random(seed)
    net, sw = make_switch()
    for port in (1, 2, 3, 4):
        net.connect(_Sink(net.sim, f"h{port}"), 0, sw, port)
    transmits = []
    sw.transmit = lambda port, frame: transmits.append((frame, port))
    sw.channel = up = _PacketIns()
    in_port = 2
    for _ in range(LISTS_PER_SEED):
        actions = _action_list(rng, SWITCH_PORTS)
        sw.table.install(FlowEntry(match=Match(), priority=1, actions=actions))
        for frame in _frames(rng):
            want_tx, want_up, forwarded = _reference_effects(
                apply_actions_multi_reference(frame, actions), in_port, sw.port_numbers)
            dropped = 0 if any(isinstance(a, OutputAction) for a in actions) else 1
            packet_out = PacketOut(buffer_id=OFP_NO_BUFFER, in_port=in_port,
                                   actions=actions, frame=frame)
            for handle, args in ((sw.on_frame, (in_port, frame)),
                                 (sw.on_controller_message, (packet_out,))):
                transmits.clear()
                up.frames.clear()
                counts = sw.packets_forwarded, sw.packets_dropped
                handle(*args)
                net.sim.run()
                _assert_same_outputs(transmits, want_tx)
                _assert_same_outputs([(f, OFPP_CONTROLLER) for f in up.frames], want_up)
                assert (sw.packets_forwarded - counts[0],
                        sw.packets_dropped - counts[1]) == (forwarded, dropped)

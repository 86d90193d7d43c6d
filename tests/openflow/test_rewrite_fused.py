"""Compiled action programs vs. the per-field reference interpreter.

``apply_actions_multi`` / ``apply_actions`` execute an action list through
its compiled :class:`~repro.openflow.actions.ActionProgram` (one flat
``rewrite_headers`` call per output that has writes); the switch runs the
same programs itself, checked against the same reference with this module's
generators in ``test_switch_differential.py``. ``apply_actions_multi_reference``
(``tests/openflow/reference.py``) interprets the same list action by action
with ``dataclasses.replace``.
Seeded random lists — interleaved outputs, trailing set-fields, repeated
writes to one field, fields whose prerequisite layer the frame lacks, the
empty list — must produce the same frames on the same ports, compared field
by field at every layer including the stored ``wire_bytes`` (which ``==``
ignores). Copy on rewrite is checked on every input frame too: after the
loop body that ran it through both, the frame still equals a deep copy
taken before, and each of its layers is still the same object.
"""

import copy
import dataclasses
import random

import pytest

from repro.netsim.addresses import MAC, IPv4
from repro.netsim.packet import (
    ETH_TYPE_ARP,
    ETH_TYPE_IP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    TCP_PSH_ACK,
    ArpOp,
    ArpPacket,
    EthernetFrame,
    HTTPRequest,
    IPv4Packet,
    TCPSegment,
    UDPDatagram,
)
from repro.openflow import FlowEntry, Match
from repro.openflow.actions import (
    ActionProgram,
    OutputAction,
    SetFieldAction,
    apply_actions,
    apply_actions_multi,
)
from repro.openflow.constants import (
    OFPP_ALL,
    OFPP_CONTROLLER,
    OFPP_FLOOD,
    OFPP_IN_PORT,
    REWRITABLE_FIELDS,
)

from tests.openflow.reference import apply_actions_multi_reference

SEEDS = range(40)
LISTS_PER_SEED = 25


def _frames(rng):
    """A TCP, a UDP and an ARP frame, drawn from ``rng`` at once and yielded
    through :func:`_unmutated`."""
    src, dst = MAC(rng.randrange(1, 1 << 40)), MAC(rng.randrange(1, 1 << 40))
    ip_src, ip_dst = IPv4(rng.randrange(1, 1 << 32)), IPv4(rng.randrange(1, 1 << 32))
    seg = TCPSegment(src_port=rng.randrange(1, 65536), dst_port=80, seq=7, ack=9,
                     flags=TCP_PSH_ACK, payload=HTTPRequest(), payload_bytes=120,
                     last_fragment=False)
    dg = UDPDatagram(src_port=rng.randrange(1, 65536), dst_port=53,
                     payload="query", payload_bytes=31)
    arp = ArpPacket(op=ArpOp.REQUEST, sender_mac=src, sender_ip=ip_src,
                    target_mac=MAC(0), target_ip=ip_dst)
    return _unmutated([
        EthernetFrame(src, dst, ETH_TYPE_IP,
                      IPv4Packet(ip_src, ip_dst, IP_PROTO_TCP, seg, ttl=17)),
        EthernetFrame(src, dst, ETH_TYPE_IP,
                      IPv4Packet(ip_src, ip_dst, IP_PROTO_UDP, dg)),
        EthernetFrame(src, dst, ETH_TYPE_ARP, arp),
    ])


def _layers(frame):
    layers = [frame]
    while hasattr(layers[-1], "payload"):
        layers.append(layers[-1].payload)
    return layers


def _unmutated(frames):
    """Yield each frame; when the caller's loop body is done with it, check
    copy on rewrite: nothing the body ran changed the frame in place."""
    for frame in frames:
        before, layers = copy.deepcopy(frame), _layers(frame)
        yield frame
        _assert_same_frame(frame, before)
        assert all(now is then for now, then in zip(_layers(frame), layers, strict=True))


def _set_field(rng):
    field = rng.choice(sorted(REWRITABLE_FIELDS))
    if field.startswith("eth"):
        return SetFieldAction(field, MAC(rng.randrange(1, 1 << 40)))
    if field.startswith("ipv4"):
        return SetFieldAction(field, IPv4(rng.randrange(1, 1 << 32)))
    return SetFieldAction(field, rng.randrange(1, 65536))


#: the switch tests' port pool: four physical ports and the reserved ports
#: the datapath implements
SWITCH_PORTS = (1, 2, 3, 4, OFPP_IN_PORT, OFPP_FLOOD, OFPP_ALL, OFPP_CONTROLLER)


def _action_list(rng, ports=None):
    """0-10 actions; small field and port pools make repeated writes to one
    field, back-to-back outputs and trailing set-fields all common. Outputs
    go to ports 1-4, or to a choice from ``ports`` when given."""
    actions = []
    for _ in range(rng.randrange(0, 11)):
        if rng.random() < 0.3:
            port = rng.randrange(1, 5) if ports is None else rng.choice(ports)
            actions.append(OutputAction(port))
        else:
            actions.append(_set_field(rng))
    return actions


def _assert_same_frame(got, want):
    """Every field of every layer, ``wire_bytes`` included."""
    layer_got, layer_want = got, want
    while dataclasses.is_dataclass(layer_want):
        assert type(layer_got) is type(layer_want)
        for field in dataclasses.fields(layer_want):
            if field.name != "payload":
                assert getattr(layer_got, field.name) == getattr(layer_want, field.name), (
                    f"{type(layer_want).__name__}.{field.name}")
        if not hasattr(layer_want, "payload"):
            return
        layer_got, layer_want = layer_got.payload, layer_want.payload
    assert layer_got == layer_want  # the application payload itself


def _assert_same_outputs(got, want):
    assert [port for _, port in got] == [port for _, port in want]
    for (got_frame, _), (want_frame, _) in zip(got, want):
        _assert_same_frame(got_frame, want_frame)


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_multi_equals_reference(seed):
    rng = random.Random(seed)
    for _ in range(LISTS_PER_SEED):
        actions = _action_list(rng)
        entry = FlowEntry(match=Match(), priority=1, actions=actions)
        for frame in _frames(rng):
            want = apply_actions_multi_reference(frame, actions)
            # a raw list is compiled where it is executed ...
            _assert_same_outputs(apply_actions_multi(frame, actions), want)
            # ... and a flow entry executes the program it compiled once
            _assert_same_outputs(apply_actions_multi(frame, entry.program), want)


@pytest.mark.parametrize("seed", SEEDS)
def test_apply_actions_equals_reference(seed):
    rng = random.Random(1000 + seed)
    for _ in range(LISTS_PER_SEED):
        actions = _action_list(rng)
        for frame in _frames(rng):
            want = apply_actions_multi_reference(frame, actions)
            got_frame, got_ports = apply_actions(frame, actions)
            assert got_ports == [port for _, port in want]
            if want:
                # the frame the last output emitted; later set-fields are lost
                _assert_same_frame(got_frame, want[-1][0])
            else:
                # no output: every rewrite applied — what the reference
                # would emit at an output appended to the list
                [(all_applied, _)] = apply_actions_multi_reference(
                    frame, actions + [OutputAction(1)])
                _assert_same_frame(got_frame, all_applied)


def test_the_generator_covers_the_cases_it_claims():
    """Guards the test above against a generator that went tame."""
    seen = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(LISTS_PER_SEED):
            actions = _action_list(rng)
            _frames(rng)
            kinds = [type(a) for a in actions]
            fields = [a.field for a in actions if isinstance(a, SetFieldAction)]
            if not actions:
                seen.add("empty")
            if OutputAction not in kinds:
                seen.add("no-output")
            if kinds and kinds[-1] is SetFieldAction and OutputAction in kinds:
                seen.add("trailing-set-field")
            if len(fields) != len(set(fields)):
                seen.add("repeated-field")
            if kinds.count(OutputAction) > 1 and SetFieldAction in kinds[kinds.index(OutputAction):]:
                seen.add("interleaved-outputs")
            if any(f.startswith("tcp") for f in fields) and any(f.startswith("udp") for f in fields):
                seen.add("tcp-and-udp-fields")
    assert seen == {"empty", "no-output", "trailing-set-field", "repeated-field",
                    "interleaved-outputs", "tcp-and-udp-fields"}


def test_the_switch_generator_covers_every_port_kind():
    """Guards the switch's differential (``test_switch_differential.py``):
    its lists reach every reserved port it implements, several outputs in
    one list, and the empty list."""
    seen = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(LISTS_PER_SEED):
            actions = _action_list(rng, SWITCH_PORTS)
            ports = [a.port for a in actions if isinstance(a, OutputAction)]
            seen.update(port for port in ports if port > 4)
            if len(ports) > 1:
                seen.add("multi-output")
            if not actions:
                seen.add("empty")
    assert seen == {OFPP_IN_PORT, OFPP_FLOOD, OFPP_ALL, OFPP_CONTROLLER,
                    "multi-output", "empty"}


def test_prerequisite_drops_keep_the_rest_of_the_row():
    rng = random.Random(0)
    tcp, udp, arp = _frames(rng)
    actions = [SetFieldAction("tcp_dst", 8080), SetFieldAction("udp_dst", 5353),
               SetFieldAction("ipv4_dst", IPv4("198.51.100.7")),
               SetFieldAction("eth_dst", MAC(0x02AA00000001)), OutputAction(3)]
    [(out_tcp, _)] = apply_actions_multi(tcp, actions)
    [(out_udp, _)] = apply_actions_multi(udp, actions)
    [(out_arp, _)] = apply_actions_multi(arp, actions)
    assert out_tcp.payload.payload.dst_port == 8080
    assert out_udp.payload.payload.dst_port == 5353
    assert out_arp.payload is arp.payload  # no IPv4 / L4 layer to write
    for out in (out_tcp, out_udp, out_arp):
        assert out.dst == MAC(0x02AA00000001)


def test_program_is_compiled_once_per_entry_and_not_shared():
    actions = [SetFieldAction("eth_dst", MAC(5)), OutputAction(1)]
    first = FlowEntry(match=Match(), priority=1, actions=actions)
    second = FlowEntry(match=Match(), priority=1, actions=actions)
    assert isinstance(first.program, ActionProgram)
    assert first.program is not second.program  # owned by the entry, no cache
    assert first.program.steps == second.program.steps

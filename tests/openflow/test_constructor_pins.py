"""The cheap constructors give what the old ones gave.

``Match``, ``SetFieldAction`` and the control channel's delay were rewritten
to make fewer calls. Each test here restates the formula the code used
before and checks the new code gives the same value: the match hash every
flow table index depends on, the coerced set-field value, and a
disarmed channel's delivery delay to the last bit.
"""

import random

import pytest

from repro.netsim.addresses import MAC, IPv4
from repro.openflow.actions import SetFieldAction
from repro.openflow.channel import ControlChannel
from repro.openflow.match import Match
from repro.simcore import Simulator

# ------------------------------------------------------------------- Match


def _old_canonical(value):
    if isinstance(value, str):
        if value.count(".") == 3:
            return IPv4(value)
        if ":" in value:
            return MAC(value)
    return value


def _old_hash(conditions):
    exact, masked = {}, {}
    for field, value in conditions.items():
        if isinstance(value, tuple):
            network, prefix_len = value
            masked[field] = (IPv4(network), int(prefix_len))
        else:
            exact[field] = _old_canonical(value)
    return hash((tuple(sorted(exact.items(), key=lambda kv: kv[0])),
                 tuple(sorted(((k, v[0], v[1]) for k, v in masked.items()),
                              key=lambda kv: kv[0]))))


MATCHES = {
    "wildcard": {},
    "exact": {"eth_type": 0x0800, "ip_proto": 6, "ipv4_src": IPv4("10.0.0.7"),
              "ipv4_dst": IPv4("203.0.113.5"), "tcp_dst": 80, "in_port": 3},
    "str-valued": {"eth_type": 0x0800, "ipv4_dst": "198.51.100.9",
                   "eth_src": "02:00:00:00:00:01", "tcp_src": 8080},
    "masked": {"eth_type": 0x0800, "ipv4_src": ("10.0.0.0", 8),
               "ipv4_dst": (IPv4("172.16.0.0"), 12), "tcp_dst": 443},
    "arp-masked": {"eth_type": 0x0806, "arp_tpa": ("192.0.2.0", 24),
                   "arp_spa": "192.0.2.1"},
}


@pytest.mark.parametrize("name", sorted(MATCHES))
def test_match_hash_is_the_old_formula(name):
    conditions = MATCHES[name]
    backwards = dict(reversed(list(conditions.items())))
    assert hash(Match(**conditions)) == _old_hash(conditions)
    assert hash(Match(**backwards)) == _old_hash(conditions)
    assert Match(**conditions) == Match(**backwards)


# ---------------------------------------------------------- SetFieldAction


def _old_coerce(field, value):
    if field.startswith("ipv4") and not isinstance(value, IPv4):
        value = IPv4(value)
    if field.startswith("eth") and not isinstance(value, MAC):
        value = MAC(value)
    if field.startswith(("tcp", "udp")):
        value = int(value)
    return value


SET_FIELDS = [
    ("ipv4_src", "10.1.2.3"), ("ipv4_dst", IPv4("10.1.2.3")),
    ("ipv4_dst", 167_838_211), ("eth_src", "02:ed:9e:00:00:01"),
    ("eth_dst", MAC(5)), ("eth_dst", 7), ("tcp_src", 80), ("tcp_dst", "8080"),
    ("udp_src", True), ("udp_dst", 53.0),
]


@pytest.mark.parametrize(("field", "value"), SET_FIELDS)
def test_set_field_value_is_the_old_coercion(field, value):
    new = SetFieldAction(field, value).value
    old = _old_coerce(field, value)
    assert new == old
    assert type(new) is type(old)


@pytest.mark.parametrize("field", ["eth_type", "ip_proto", "in_port", "arp_tpa", "ipv4"])
def test_non_rewritable_field_raises(field):
    with pytest.raises(ValueError, match="not rewritable"):
        SetFieldAction(field, 1)


# --------------------------------------------------------- control channel


class _Message:
    def __init__(self, wire_bytes):
        self.wire_bytes = wire_bytes


class _Endpoint:
    def on_switch_message(self, switch, message):
        pass

    def on_controller_message(self, message):
        pass


class _RecordingSim(Simulator):
    """Records the delay of every message the channel puts in flight."""

    def __init__(self):
        super().__init__()
        self.sent = []

    def schedule(self, delay, callback, *args):
        if getattr(callback, "__name__", "") in ("_deliver_up", "_deliver_down"):
            self.sent.append((self.now, delay, callback.__name__ == "_deliver_up",
                              args[0].wire_bytes))
        return super().schedule(delay, callback, *args)


def _old_delays(sent, latency_s, bandwidth_bps):
    """The pre-inlining ``_delay(message, busy_attr) + 0.0`` per message."""
    busy = {True: 0.0, False: 0.0}
    delays = []
    for now, _delay, up, wire_bytes in sent:
        start = max(now, busy[up])
        tx = 0.0
        if bandwidth_bps is not None:
            tx = wire_bytes * 8.0 / bandwidth_bps
        busy[up] = start + tx
        delays.append((start + tx - now) + latency_s + 0.0)
    return delays


@pytest.mark.parametrize("bandwidth_bps", [None, 1e6, 3.3e7])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_disarmed_channel_delay_is_bit_identical(seed, bandwidth_bps):
    rng = random.Random(seed)
    sim = _RecordingSim()
    channel = ControlChannel(sim, latency_s=0.0002 + rng.random() * 1e-4,
                             bandwidth_bps=bandwidth_bps)
    endpoint = _Endpoint()
    channel.bind(endpoint, endpoint)
    at = 0.0
    for _ in range(400):
        at += rng.choice((0.0, 0.0, 1e-6, 3.7e-5, rng.random() * 1e-3))
        send = channel.to_controller if rng.random() < 0.5 else channel.to_switch
        sim.schedule_at(at, send, _Message(rng.randrange(64, 1500)))
    sim.run()
    assert len(sim.sent) == 400
    expected = _old_delays(sim.sent, channel.latency_s, bandwidth_bps)
    assert [delay.hex() for _, delay, _, _ in sim.sent] == [d.hex() for d in expected]

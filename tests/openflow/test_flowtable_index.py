"""Indexed flow-table correctness: randomized differential testing.

The lookup index (src/dst-keyed lists in table order + exact-match index)
must reproduce OpenFlow priority/insertion-order tiebreak semantics
*exactly*. These tests drive randomized install/delete/expiry workloads
with overlapping priorities, wildcards, and masked matches, and compare
``FlowTable.lookup`` against the reference linear scan
(``tests/openflow/reference.py``) on every probe — over 10k probes in total.
"""

import random

import pytest

from repro.netsim.addresses import IPv4
from repro.openflow import (
    OFPFF_SEND_FLOW_REM,
    FlowEntry,
    FlowTable,
    Match,
    OutputAction,
)
from repro.simcore import Simulator
from repro.verify.snapshot import RuleView, SwitchView
from repro.verify.trace import RuleIndex

from tests.openflow.reference import lookup_linear


@pytest.fixture
def sim():
    return Simulator()


def entry(priority=1, match=None, idle=0.0, hard=0.0, flags=0, cookie=0):
    return FlowEntry(
        match=match if match is not None else Match(),
        priority=priority,
        actions=[OutputAction(1)],
        idle_timeout=idle,
        hard_timeout=hard,
        flags=flags,
        cookie=cookie,
    )


# ------------------------------------------------------- random generators

SRC_POOL = [f"10.0.0.{i}" for i in range(1, 9)]
DST_POOL = [f"172.16.0.{i}" for i in range(1, 9)]
PORT_POOL = [80, 443, 8080]


def random_match(rng):
    """A match drawing from small pools so overlaps are frequent: exact or
    masked or absent src/dst, optional proto/port conditions, sometimes the
    full wildcard."""
    kind = rng.random()
    if kind < 0.08:
        return Match()  # full wildcard
    conditions = {"eth_type": 0x0800}
    src_mode = rng.random()
    if src_mode < 0.4:
        conditions["ipv4_src"] = rng.choice(SRC_POOL)
    elif src_mode < 0.55:
        conditions["ipv4_src"] = ("10.0.0.0", rng.choice((8, 24, 29, 30)))
    dst_mode = rng.random()
    if dst_mode < 0.5:
        conditions["ipv4_dst"] = rng.choice(DST_POOL)
    elif dst_mode < 0.65:
        conditions["ipv4_dst"] = ("172.16.0.0", rng.choice((12, 24, 29, 30)))
    if rng.random() < 0.5:
        conditions["ip_proto"] = 6
        if rng.random() < 0.6:
            conditions["tcp_dst"] = rng.choice(PORT_POOL)
    return Match(**conditions)


def random_fields(rng):
    """Packet fields hitting the same pools (plus strangers and non-IP)."""
    roll = rng.random()
    if roll < 0.05:
        return {"in_port": 1, "eth_type": 0x0806, "arp_op": 1}  # non-IP
    fields = {
        "in_port": rng.randint(1, 4),
        "eth_type": 0x0800,
        "ipv4_src": IPv4(rng.choice(SRC_POOL + ["192.168.9.9"])),
        "ipv4_dst": IPv4(rng.choice(DST_POOL + ["8.8.8.8"])),
        "ip_proto": 6,
    }
    if rng.random() < 0.8:
        fields["tcp_dst"] = rng.choice(PORT_POOL + [22])
    return fields


def assert_same_lookup(table, fields):
    indexed = table.lookup(fields)
    linear = lookup_linear(table, fields)
    assert indexed is linear, (
        f"divergence for {fields!r}: indexed={indexed!r} linear={linear!r} "
        f"table={[(e.priority, e.seq, e.match) for e in table.entries]!r}")


# ---------------------------------------------------- differential testing


def test_differential_random_install_delete_expiry(sim):
    """≥10k randomized lookups: indexed result is the linear scan's result,
    through installs, strict and non-strict deletes, idle/hard expiry."""
    rng = random.Random(0xF10)
    table = FlowTable(sim)
    installed = []
    probes = 0
    for round_no in range(120):
        # mutate: a burst of installs/deletes/expiry, at advancing sim time
        for _ in range(rng.randint(1, 6)):
            op = rng.random()
            if op < 0.55 or not installed:
                match = random_match(rng)
                priority = rng.choice((0, 1, 5, 5, 5, 10, 100))
                new = entry(priority=priority, match=match,
                            idle=rng.choice((0.0, 0.0, 2.0)),
                            hard=rng.choice((0.0, 0.0, 5.0)),
                            cookie=rng.randint(0, 2))
                table.install(new)
                installed.append(new)
            elif op < 0.75:
                victim = rng.choice(installed)
                table.delete(victim.match, strict=True, priority=victim.priority)
            elif op < 0.9:
                table.delete(random_match(rng))  # non-strict, covers()
            else:
                # advance time so idle/hard timers fire
                sim.schedule(rng.choice((1.0, 3.0, 6.0)), lambda: None)
                sim.run()
        installed = [e for e in installed if not e.removed]
        # probe: indexed vs reference linear scan
        for _ in range(90):
            assert_same_lookup(table, random_fields(rng))
            probes += 1
    assert probes >= 10_000


def test_verifier_index_picks_what_the_table_picks(sim):
    """``repro.verify.trace.RuleIndex`` over a frozen view of the table
    selects the same rule as ``FlowTable.lookup`` on every probe."""
    rng = random.Random(0x1DE)
    table = FlowTable(sim)
    for _ in range(40):
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.75 or len(table) == 0:
                table.install(entry(priority=rng.choice((0, 1, 5, 5, 10, 100)),
                                    match=random_match(rng)))
            else:
                victim = rng.choice(table.entries)
                table.delete(victim.match, strict=True, priority=victim.priority)
        view = SwitchView(dpid=1, name="s1", rules=tuple(
            RuleView(match=e.match, priority=e.priority, seq=e.seq,
                     cookie=e.cookie, flags=e.flags, actions=tuple(e.actions))
            for e in table.entries))
        index = RuleIndex(view)
        for _ in range(50):
            fields = random_fields(rng)
            chosen = table.lookup(fields)
            rule = index.lookup(fields)
            assert (rule and (rule.priority, rule.seq)) == \
                (chosen and (chosen.priority, chosen.seq)), fields


def test_differential_equal_priority_tiebreak_dense(sim):
    """Dense same-priority overlap (wildcards shadowing exact entries):
    insertion order must break ties identically in both implementations."""
    rng = random.Random(0xBEE)
    table = FlowTable(sim)
    for _ in range(60):
        table.install(entry(priority=5, match=random_match(rng)))
    for _ in range(400):
        assert_same_lookup(table, random_fields(rng))
    # delete half (non-strict wildcard over a subnet), re-probe
    table.delete(Match(ipv4_dst=("172.16.0.0", 24)))
    for _ in range(400):
        assert_same_lookup(table, random_fields(rng))


def test_differential_survives_clear_and_rebuild(sim):
    rng = random.Random(7)
    table = FlowTable(sim)
    for _ in range(30):
        table.install(entry(priority=rng.choice((1, 5)), match=random_match(rng)))
    table.clear()
    assert len(table) == 0
    assert table.lookup(random_fields(rng)) is None
    for _ in range(30):
        table.install(entry(priority=rng.choice((1, 5)), match=random_match(rng)))
    for _ in range(200):
        assert_same_lookup(table, random_fields(rng))


# ------------------------------------------------- index-specific behavior


def test_replacement_resets_counters_and_fires_no_flow_removed(sim):
    """OFPFC_ADD overlap: replacing an identical match+priority entry resets
    counters and must not emit FlowRemoved — now routed through the
    exact-match index instead of a table scan."""
    removed = []
    table = FlowTable(sim, on_removed=lambda e, r: removed.append(r))
    old = entry(priority=5, match=Match(tcp_dst=80), flags=OFPFF_SEND_FLOW_REM)
    table.install(old)
    table.lookup({"eth_type": 0x0800, "ip_proto": 6, "tcp_dst": 80}).touch(sim.now, 100)
    assert old.packet_count == 1
    new = entry(priority=5, match=Match(tcp_dst=80), flags=OFPFF_SEND_FLOW_REM)
    table.install(new)
    assert len(table) == 1
    assert removed == []  # replacement is silent
    assert new.packet_count == 0 and new.byte_count == 0  # counters reset
    assert table.lookup({"eth_type": 0x0800, "ip_proto": 6, "tcp_dst": 80}) is new


def test_strict_delete_all_priorities_without_priority_arg(sim):
    table = FlowTable(sim)
    table.install(entry(priority=5, match=Match(tcp_dst=80)))
    table.install(entry(priority=9, match=Match(tcp_dst=80)))
    table.install(entry(priority=9, match=Match(tcp_dst=443)))
    assert table.delete(Match(tcp_dst=80), strict=True) == 2
    assert len(table) == 1


def test_strict_delete_honours_cookie_filter(sim):
    table = FlowTable(sim)
    table.install(entry(priority=5, match=Match(tcp_dst=80), cookie=1))
    assert table.delete(Match(tcp_dst=80), strict=True, priority=5, cookie=2) == 0
    assert table.delete(Match(tcp_dst=80), strict=True, priority=5, cookie=1) == 1


def test_reinstalled_entry_is_live_again(sim):
    """Removal tombstones the entry (``removed=True``); reinstalling the same
    object must reset the flag or its idle timer would never fire."""
    table = FlowTable(sim)
    e = entry(priority=5, match=Match(tcp_dst=80), idle=1.0)
    table.install(e)
    table.delete(Match(tcp_dst=80), strict=True, priority=5)
    assert e.removed
    table.install(e)
    assert not e.removed
    sim.run()  # idle timer must fire and remove it again
    assert len(table) == 0


def test_lookup_counters_still_track(sim):
    table = FlowTable(sim)
    table.install(entry(match=Match(tcp_dst=80)))
    table.lookup({"eth_type": 0x0800, "ip_proto": 6, "tcp_dst": 80})
    table.lookup({"eth_type": 0x0800, "ip_proto": 6, "tcp_dst": 22})
    assert (table.lookups, table.hits) == (2, 1)


def test_entries_iteration_order_preserved_under_churn(sim):
    """``entries``/``stats()`` order stays (-priority, seq) while the index
    handles removals by bisect, not scan."""
    table = FlowTable(sim)
    a = entry(priority=1, match=Match(tcp_dst=80))
    b = entry(priority=9, match=Match(tcp_dst=443))
    c = entry(priority=5)
    d = entry(priority=9, match=Match(tcp_dst=22))
    for e in (a, b, c, d):
        table.install(e)
    table.delete(Match(tcp_dst=443), strict=True, priority=9)
    assert table.entries == [d, c, a]
    table.install(b)
    assert table.entries == [d, b, c, a]  # b is now the newest prio-9 entry

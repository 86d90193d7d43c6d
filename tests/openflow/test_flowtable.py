"""Unit tests for the flow table: priorities, timeouts, counters, delete."""

import pytest

from repro.openflow import (
    OFPFF_SEND_FLOW_REM,
    OFPRR_DELETE,
    OFPRR_HARD_TIMEOUT,
    OFPRR_IDLE_TIMEOUT,
    FlowEntry,
    FlowTable,
    Match,
    OutputAction,
)
from repro.simcore import Simulator


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


def forward(table, fields, nbytes):
    """What the switch does per forwarded packet: look up, touch the winner."""
    found = table.lookup(fields)
    if found is not None:
        found.touch(table.sim.now, nbytes)
    return found


FIELDS_80 = {"eth_type": 0x0800, "ip_proto": 6, "tcp_dst": 80}
FIELDS_443 = {"eth_type": 0x0800, "ip_proto": 6, "tcp_dst": 443}


def test_lookup_highest_priority_wins(sim):
    table = FlowTable(sim)
    low = entry(priority=1)
    high = entry(priority=10, match=Match(tcp_dst=80))
    table.install(low)
    table.install(high)
    assert table.lookup(FIELDS_80) is high
    assert table.lookup(FIELDS_443) is low


def test_equal_priority_insertion_order(sim):
    table = FlowTable(sim)
    first = entry(priority=5, match=Match(tcp_dst=80))
    second = entry(priority=5)
    table.install(first)
    table.install(second)
    assert table.lookup(FIELDS_80) is first


def test_install_same_match_priority_replaces(sim):
    table = FlowTable(sim)
    old = entry(priority=5, match=Match(tcp_dst=80))
    table.install(old)
    new = entry(priority=5, match=Match(tcp_dst=80))
    table.install(new)
    assert len(table) == 1
    assert table.lookup(FIELDS_80) is new


def test_no_match_returns_none(sim):
    table = FlowTable(sim)
    table.install(entry(match=Match(tcp_dst=22)))
    assert table.lookup(FIELDS_80) is None


def test_touch_updates_counters(sim):
    table = FlowTable(sim)
    e = entry()
    table.install(e)
    forward(table, FIELDS_80, 100)
    forward(table, FIELDS_80, 200)
    assert e.packet_count == 2
    assert e.byte_count == 300


def test_hard_timeout_expires(sim):
    table = FlowTable(sim)
    removed = []
    table.on_removed = lambda e, r: removed.append(r)
    e = entry(hard=5.0, flags=OFPFF_SEND_FLOW_REM)
    table.install(e)
    sim.run()
    assert len(table) == 0
    assert removed == [OFPRR_HARD_TIMEOUT]
    assert sim.now == 5.0


def test_idle_timeout_without_traffic(sim):
    table = FlowTable(sim)
    removed = []
    table.on_removed = lambda e, r: removed.append((sim.now, r))
    table.install(entry(idle=2.0, flags=OFPFF_SEND_FLOW_REM))
    sim.run()
    assert removed == [(2.0, OFPRR_IDLE_TIMEOUT)]


def test_idle_timeout_refreshed_by_traffic(sim):
    table = FlowTable(sim)
    removed = []
    table.on_removed = lambda e, r: removed.append(sim.now)
    e = entry(idle=2.0, flags=OFPFF_SEND_FLOW_REM)
    table.install(e)
    # hit the flow at t=1.5 and t=3.0: expiry should slide to 5.0
    sim.schedule(1.5, forward, table, FIELDS_80, 100)
    sim.schedule(3.0, forward, table, FIELDS_80, 100)
    sim.run()
    assert removed == [5.0]


def test_flow_removed_not_sent_without_flag(sim):
    table = FlowTable(sim)
    removed = []
    table.on_removed = lambda e, r: removed.append(r)
    table.install(entry(idle=1.0, flags=0))
    sim.run()
    assert len(table) == 0
    assert removed == []


def test_idle_and_hard_together_hard_wins_when_earlier(sim):
    table = FlowTable(sim)
    removed = []
    table.on_removed = lambda e, r: removed.append((sim.now, r))
    table.install(entry(idle=10.0, hard=3.0, flags=OFPFF_SEND_FLOW_REM))
    sim.run()
    assert removed == [(3.0, OFPRR_HARD_TIMEOUT)]


def test_delete_strict_requires_exact_match(sim):
    table = FlowTable(sim)
    table.install(entry(priority=5, match=Match(tcp_dst=80)))
    table.install(entry(priority=6, match=Match(tcp_dst=80)))
    count = table.delete(Match(tcp_dst=80), strict=True, priority=5)
    assert count == 1
    assert len(table) == 1


def test_delete_nonstrict_covers(sim):
    table = FlowTable(sim)
    table.install(entry(priority=5, match=Match(tcp_dst=80)))
    table.install(entry(priority=6, match=Match(tcp_dst=443)))
    table.install(entry(priority=7, match=Match(ipv4_dst="1.1.1.1")))
    count = table.delete(Match())  # wildcard covers everything
    assert count == 3
    assert len(table) == 0


def test_delete_by_cookie(sim):
    table = FlowTable(sim)
    table.install(entry(cookie=1, match=Match(tcp_dst=80)))
    table.install(entry(cookie=2, match=Match(tcp_dst=443)))
    count = table.delete(Match(), cookie=2)
    assert count == 1
    assert table.lookup(FIELDS_80) is not None


def test_delete_notifies_with_flag(sim):
    table = FlowTable(sim)
    removed = []
    table.on_removed = lambda e, r: removed.append(r)
    table.install(entry(flags=OFPFF_SEND_FLOW_REM, match=Match(tcp_dst=80)))
    table.delete(Match(tcp_dst=80))
    assert removed == [OFPRR_DELETE]


def test_clear_removes_silently(sim):
    table = FlowTable(sim)
    removed = []
    table.on_removed = lambda e, r: removed.append(r)
    table.install(entry(flags=OFPFF_SEND_FLOW_REM))
    table.clear()
    assert len(table) == 0
    assert removed == []


def test_stats_snapshot(sim):
    table = FlowTable(sim)
    e = entry(priority=3, match=Match(tcp_dst=80), idle=9.0)
    table.install(e)
    forward(table, FIELDS_80, 500)
    stats = table.stats()
    assert len(stats) == 1
    assert stats[0]["priority"] == 3
    assert stats[0]["packet_count"] == 1
    assert stats[0]["byte_count"] == 500
    assert stats[0]["idle_timeout"] == 9.0


def test_expired_entry_not_matched_after_removal(sim):
    table = FlowTable(sim)
    table.install(entry(idle=1.0, match=Match(tcp_dst=80)))
    sim.run()  # expires at 1.0
    assert table.lookup(FIELDS_80) is None


def test_duration_is_time_since_install_not_last_used(sim):
    """OpenFlow duration semantics: ``now - installed_at``. The old property
    returned ``last_used - installed_at``, so a flow hit once at t=1 and
    inspected at t=5 reported 1 s instead of 5 s."""
    table = FlowTable(sim)
    e = entry(match=Match(tcp_dst=80))
    table.install(e)
    sim.schedule(1.0, forward, table, FIELDS_80, 100)
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert sim.now == 5.0
    assert e.last_used == 1.0
    assert e.duration == 5.0


def test_duration_matches_stats_snapshot(sim):
    table = FlowTable(sim)
    e = entry(match=Match(tcp_dst=80))
    table.install(e)
    sim.schedule(2.0, forward, table, FIELDS_80, 100)
    sim.schedule(7.0, lambda: None)
    sim.run()
    assert table.stats()[0]["duration"] == e.duration == 7.0


def test_duration_zero_before_install():
    e = entry()
    assert e.duration == 0.0


def test_seq_is_stored_on_the_entry(sim):
    """The tiebreak sequence lives on the entry itself — the old id()-keyed
    side table could be corrupted when a removed entry's id was reused."""
    table = FlowTable(sim)
    first = entry(priority=5, match=Match(tcp_dst=80))
    second = entry(priority=5, match=Match(tcp_dst=443))
    table.install(first)
    table.install(second)
    assert (first.seq, second.seq) == (1, 2)
    # reinstalling assigns a fresh, strictly increasing seq
    table.delete(Match(tcp_dst=80))
    table.install(first)
    assert first.seq == 3


def test_equal_priority_order_survives_reinstall(sim):
    """After removing and reinstalling the once-first entry, it must sort
    *behind* its equal-priority peer (it is now the newer install)."""
    table = FlowTable(sim)
    first = entry(priority=5)
    second = entry(priority=5, match=Match(tcp_dst=80))
    table.install(first)
    table.install(second)
    assert table.lookup(FIELDS_80) is first  # wildcard installed earlier
    table.delete(Match(), strict=True, priority=5)
    table.install(first)
    assert table.lookup(FIELDS_80) is second  # first is now the newcomer


def test_entries_sorted_by_priority_then_seq(sim):
    table = FlowTable(sim)
    a = entry(priority=1, match=Match(tcp_dst=80))
    b = entry(priority=9, match=Match(tcp_dst=443))
    c = entry(priority=5)
    d = entry(priority=9, match=Match(tcp_dst=22))
    for e in (a, b, c, d):
        table.install(e)
    assert table.entries == [b, d, c, a]


def test_lookup_counters(sim):
    table = FlowTable(sim)
    table.install(entry(match=Match(tcp_dst=80)))
    table.lookup(FIELDS_80)
    table.lookup(FIELDS_443)
    assert table.lookups == 2
    assert table.hits == 1

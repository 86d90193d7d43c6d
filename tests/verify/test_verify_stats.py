"""Shadowed-rule / cache observability: FlowTable.shadowed_entries and the
new OpenFlowSwitch.stats() counters, plus the live stale-cache detector."""

from repro.openflow import FlowEntry, FlowTable, Match, OutputAction
from repro.simcore import Simulator
from repro.verify import V5_SHADOWING, snapshot_testbed, verify_snapshot

from tests.verify.conftest import make_parta_testbed


def _table():
    return FlowTable(Simulator())


class TestShadowedEntries:
    def test_broader_higher_priority_shadows(self):
        table = _table()
        narrow = FlowEntry(match=Match(ipv4_src="10.0.0.1",
                                       ipv4_dst="10.0.0.2"),
                           priority=20, actions=[OutputAction(1)])
        broad = FlowEntry(match=Match(ipv4_dst="10.0.0.2"),
                          priority=30, actions=[OutputAction(2)])
        table.install(narrow)
        table.install(broad)
        assert table.shadowed_entries() == [narrow]
        assert table.shadowed_count() == 1

    def test_same_priority_earlier_seq_shadows(self):
        table = _table()
        first = FlowEntry(match=Match(ipv4_dst="10.0.0.2"),
                          priority=20, actions=[OutputAction(1)])
        second = FlowEntry(match=Match(ipv4_src="10.0.0.1",
                                       ipv4_dst="10.0.0.2"),
                           priority=20, actions=[OutputAction(2)])
        table.install(first)
        table.install(second)
        assert table.shadowed_entries() == [second]

    def test_disjoint_rules_do_not_shadow(self):
        table = _table()
        table.install(FlowEntry(match=Match(ipv4_dst="10.0.0.2"),
                                priority=30, actions=[OutputAction(1)]))
        table.install(FlowEntry(match=Match(ipv4_dst="10.0.0.3"),
                                priority=20, actions=[OutputAction(2)]))
        table.install(FlowEntry(match=Match(), priority=0,
                                actions=[OutputAction(3)]))
        assert table.shadowed_count() == 0

    def test_lower_priority_never_shadows(self):
        table = _table()
        table.install(FlowEntry(match=Match(), priority=0,
                                actions=[OutputAction(1)]))
        table.install(FlowEntry(match=Match(ipv4_dst="10.0.0.2"),
                                priority=20, actions=[OutputAction(2)]))
        assert table.shadowed_count() == 0


class TestSwitchStats:
    def test_stats_exposes_verification_counters(self):
        tb, _svc = make_parta_testbed(rounds=2)
        stats = tb.switch.stats()
        assert stats["shadowed_rules"] == 0
        assert stats["table_generation"] == tb.switch.table.generation
        assert stats["microflow_entries"] == len(tb.switch._microflow)
        assert stats["microflow_entries"] > 0  # traffic warmed the cache

    def test_stale_cache_entry_is_flagged_v5(self):
        """Plant a cached answer the table no longer gives — the
        snapshot-time audit must flag it.

        Surgical eviction removes the cached microflow the instant its
        rule is deleted, so to model the corruption (a buggy eviction that
        missed the key) the stale answer is re-planted after the delete.
        """
        tb, _svc = make_parta_testbed(rounds=2)
        switch = tb.switch
        cached = [(key, entry) for key, entry in switch._microflow.items()
                  if entry is not None]
        assert cached
        key, entry = cached[0]
        switch.table.delete(entry.match, strict=True, priority=entry.priority)
        switch._microflow[key] = entry  # simulate an eviction bug
        snapshot = snapshot_testbed(tb)
        view = snapshot.switch(switch.dpid)
        assert view.stale_cache
        report = verify_snapshot(snapshot, invariants=(V5_SHADOWING,))
        assert any(v.invariant == V5_SHADOWING and "cache[" in v.subject
                   for v in report.violations), report.to_text()

    def test_stale_cache_clean_after_delete(self):
        """The eviction hook itself must leave no staleness behind."""
        tb, _svc = make_parta_testbed(rounds=2)
        switch = tb.switch
        cached = [(key, entry) for key, entry in switch._microflow.items()
                  if entry is not None]
        assert cached
        _key, entry = cached[0]
        switch.table.delete(entry.match, strict=True, priority=entry.priority)
        snapshot = snapshot_testbed(tb)
        view = snapshot.switch(switch.dpid)
        assert view.stale_cache == ()

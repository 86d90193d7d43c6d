"""V5 dead-rule verdicts on hand-built tables, the switch's cache
counters, and the live stale-cache detector."""

from repro.openflow import Match, OutputAction
from repro.verify import V5_SHADOWING, snapshot_testbed, verify_snapshot
from repro.verify.invariants import shadowing_violations
from repro.verify.snapshot import RuleView, SwitchView

from tests.verify.conftest import make_parta_testbed


def _rule(match, priority, seq):
    return RuleView(match=match, priority=priority, seq=seq, cookie=0,
                    flags=0, actions=(OutputAction(1),))


def _dead(*rules):
    """Labels of the rules V5 reports dead, for ``rules`` in any order."""
    ordered = tuple(sorted(rules, key=lambda r: (-r.priority, r.seq)))
    view = SwitchView(dpid=1, name="s1", rules=ordered, stale_cache=())
    return [v.subject for v in shadowing_violations(view)]


class TestShadowedEntries:
    def test_broader_higher_priority_shadows(self):
        narrow = _rule(Match(ipv4_src="10.0.0.1", ipv4_dst="10.0.0.2"), 20, 1)
        broad = _rule(Match(ipv4_dst="10.0.0.2"), 30, 2)
        assert _dead(narrow, broad) == [narrow.label()]

    def test_same_priority_earlier_seq_shadows(self):
        first = _rule(Match(ipv4_dst="10.0.0.2"), 20, 1)
        second = _rule(Match(ipv4_src="10.0.0.1", ipv4_dst="10.0.0.2"), 20, 2)
        assert _dead(first, second) == [second.label()]

    def test_disjoint_rules_do_not_shadow(self):
        assert _dead(_rule(Match(ipv4_dst="10.0.0.2"), 30, 1),
                     _rule(Match(ipv4_dst="10.0.0.3"), 20, 2),
                     _rule(Match(), 0, 3)) == []

    def test_lower_priority_never_shadows(self):
        assert _dead(_rule(Match(), 0, 1),
                     _rule(Match(ipv4_dst="10.0.0.2"), 20, 2)) == []


class TestSwitchStats:
    def test_stats_exposes_verification_counters(self):
        tb, _svc = make_parta_testbed(rounds=2)
        stats = tb.switch.stats()
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

"""V5 dead-rule verdicts on hand-built tables, and the switch's stats."""

from repro.openflow import Match, OutputAction
from repro.verify.invariants import shadowing_violations
from repro.verify.snapshot import RuleView, SwitchView

from tests.verify.conftest import make_parta_testbed


def _rule(match, priority, seq):
    return RuleView(match=match, priority=priority, seq=seq, cookie=0,
                    flags=0, actions=(OutputAction(1),))


def _dead(*rules):
    """Labels of the rules V5 reports dead, for ``rules`` in any order."""
    ordered = tuple(sorted(rules, key=lambda r: (-r.priority, r.seq)))
    view = SwitchView(dpid=1, name="s1", rules=ordered)
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
        assert stats["flows"] == len(tb.switch.table) > 0
        assert stats["table_lookups"] == tb.switch.table.lookups
        assert stats["table_hits"] > 0  # traffic rode the installed rules

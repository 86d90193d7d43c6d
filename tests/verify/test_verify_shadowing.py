"""V5's bucket-pruned dead-rule scan against a brute-force reference.

``shadowing_violations`` only compares a rule with the candidates in the
four ``(ipv4_src|None, ipv4_dst|None)`` buckets a covering rule can live in.
A randomized install/delete sequence over a live switch table is the
adversarial input: after every FlowMod, the dead rules V5 reports for that
switch must be exactly the entries that some earlier entry (in lookup
order) covers, found by a pairwise ``Match.covers`` scan.
"""

import numpy as np

from repro.openflow import FlowEntry, Match, OutputAction
from repro.verify import V5_SHADOWING, snapshot_testbed, verify_snapshot
from repro.verify.snapshot import RuleView

from tests.verify.conftest import make_parta_testbed


def _random_match(rng):
    # A few addresses per octet, so covering pairs are common.
    fields = {"eth_type": 0x0800, "ip_proto": 6}
    if rng.random() < 0.8:
        if rng.random() < 0.1:  # masked: lands in the wildcard-src bucket
            fields["ipv4_src"] = (f"10.9.{int(rng.integers(0, 4))}.0", 24)
        else:
            fields["ipv4_src"] = (f"10.9.{int(rng.integers(0, 4))}."
                                  f"{int(rng.integers(1, 6))}")
    if rng.random() < 0.8:
        fields["ipv4_dst"] = (f"172.16.{int(rng.integers(0, 4))}."
                              f"{int(rng.integers(1, 6))}")
    if rng.random() < 0.5:
        fields["tcp_dst"] = int(rng.integers(80, 84))
    return Match(**fields)


def _random_flowmod(tb, rng, installed):
    table = tb.switch.table
    if installed and rng.random() < 0.3:
        victim = installed.pop(int(rng.integers(0, len(installed))))
        table.delete(victim.match, strict=True, priority=victim.priority)
        return
    entry = FlowEntry(match=_random_match(rng),
                      priority=int(rng.integers(1, 40)),
                      actions=[OutputAction(int(rng.integers(1, 8)))],
                      now=tb.sim.now)
    table.install(entry)
    installed.append(entry)


def _label(entry):
    return RuleView(match=entry.match, priority=entry.priority, seq=entry.seq,
                    cookie=entry.cookie, flags=entry.flags,
                    actions=()).label()


def _brute_force_dead(table):
    entries = table.entries  # lookup order: priority desc, seq asc
    return sorted(_label(entry) for i, entry in enumerate(entries)
                  if any(earlier.match.covers(entry.match)
                         for earlier in entries[:i]))


def _v5_dead(tb):
    report = verify_snapshot(snapshot_testbed(tb), invariants=(V5_SHADOWING,))
    return sorted(v.subject for v in report.violations
                  if v.dpid == tb.switch.dpid and v.subject.startswith("rule["))


def test_randomized_flowmods_match_pairwise_scan():
    tb, _svc = make_parta_testbed(rounds=3)
    rng = np.random.default_rng(1234)
    installed = []
    most_dead = 0
    for _mod in range(120):
        _random_flowmod(tb, rng, installed)
        expected = _brute_force_dead(tb.switch.table)
        assert _v5_dead(tb) == expected
        most_dead = max(most_dead, len(expected))
    assert most_dead >= 5  # the sequence did produce dead rules to find

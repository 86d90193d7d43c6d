"""Incremental verification must be byte-identical to a full re-check.

Both modes run the same checker — the incremental one just carries caches
keyed on ``FlowTable.generation`` and the controller-environment signature
— so after ANY sequence of FlowMods the two reports must compare equal,
violations and counts alike. A randomized install/delete sequence over a
live switch table is the adversarial driver.
"""

import dataclasses

import numpy as np

from repro.netsim.addresses import MAC, IPv4
from repro.openflow import FlowEntry, Match, OutputAction
from repro.openflow.constants import OFPP_CONTROLLER
from repro.verify import IncrementalVerifier, snapshot_testbed, verify_snapshot
from repro.verify.snapshot import ControlView, HostView, NetworkSnapshot, RuleView, SwitchView

from tests.verify.conftest import make_parta_testbed


def _random_match(rng):
    fields = {"eth_type": 0x0800, "ip_proto": 6}
    if rng.random() < 0.8:
        fields["ipv4_src"] = (f"10.9.{int(rng.integers(0, 4))}."
                              f"{int(rng.integers(1, 250))}")
    if rng.random() < 0.8:
        fields["ipv4_dst"] = (f"172.16.{int(rng.integers(0, 4))}."
                              f"{int(rng.integers(1, 250))}")
    if rng.random() < 0.5:
        fields["tcp_dst"] = int(rng.integers(1, 65535))
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


def _synthetic_snapshot(rules, switches=4):
    """A frozen snapshot of ``rules`` exact-match entries spread over
    ``switches`` independent switches (plus a table-miss rule each) and no
    services: pure class enumeration and tracing."""
    switch_views, hosts = [], []
    per_switch = rules // switches
    for dpid in range(1, switches + 1):
        rule_views = [RuleView(match=Match(), priority=0, seq=1, cookie=0, flags=0,
                               actions=(OutputAction(OFPP_CONTROLLER),))]
        for i in range(per_switch):
            match = Match(eth_type=0x0800, ip_proto=6,
                          ipv4_src=f"10.{dpid}.{i // 256 % 256}.{i % 256}",
                          ipv4_dst=f"172.{dpid}.{i // 256 % 256}.{i % 256}",
                          tcp_dst=80)
            rule_views.append(RuleView(match=match, priority=100, seq=i + 2,
                                       cookie=0, flags=0,
                                       actions=(OutputAction(1),)))
        switch_views.append(SwitchView(dpid=dpid, name=f"s{dpid}",
                                       generation=per_switch,
                                       rules=tuple(rule_views), stale_cache=()))
        hosts.append(HostView(ip=IPv4(f"192.168.{dpid}.1"), dpid=dpid, port_no=1,
                              mac=MAC(f"02:00:00:00:{dpid:02x}:01")))
    control = ControlView(alive=True, epoch=1, use_flow_memory=False,
                          vgw_ip=IPv4("10.255.255.254"),
                          vgw_mac=MAC("02:ed:9e:00:00:01"), services=(),
                          live_endpoints=(), memory=(), cookie_cluster=())
    return NetworkSnapshot(switches=tuple(switch_views), adjacency=(),
                           hosts=tuple(hosts), control=control)


def _touch_first_switch(snapshot):
    """``snapshot`` with one extra rule on its first switch, generation
    bumped — the incremental checker's steady-state case."""
    view = snapshot.switches[0]
    extra = RuleView(match=Match(eth_type=0x0800, ip_proto=6,
                                 ipv4_src="10.250.0.1", ipv4_dst="172.250.0.1",
                                 tcp_dst=80),
                     priority=100, seq=len(view.rules) + 2, cookie=0, flags=0,
                     actions=(OutputAction(1),))
    touched = dataclasses.replace(view, rules=view.rules + (extra,),
                                  generation=view.generation + 1)
    return dataclasses.replace(snapshot,
                               switches=(touched,) + snapshot.switches[1:])


class TestByteIdentity:
    def test_randomized_flowmod_sequence(self):
        tb, _svc = make_parta_testbed(rounds=3)
        rng = np.random.default_rng(1234)
        verifier = IncrementalVerifier(testbed=tb)
        installed = []
        for _round in range(12):
            for _mod in range(int(rng.integers(1, 6))):
                _random_flowmod(tb, rng, installed)
            snapshot = snapshot_testbed(tb)
            full = verify_snapshot(snapshot)
            incremental = verifier.verify(snapshot)
            assert incremental == full
            assert incremental.to_json() == full.to_json()

    def test_unchanged_snapshot_reuses_every_class(self, parta_testbed):
        tb, _svc = parta_testbed
        snapshot = snapshot_testbed(tb)
        verifier = IncrementalVerifier()
        first = verifier.verify(snapshot)
        assert verifier.classes_traced == first.classes_checked
        second = verifier.verify(snapshot)
        assert second == first
        assert verifier.classes_traced == 0
        assert verifier.classes_reused == first.classes_checked

    def test_touching_one_switch_retraces_only_its_classes(self):
        """One switch of four gains a rule: its classes and the new one are
        traced again, every other switch's class is reused (500 rules: 127
        traced, 378 reused), and the report is the full checker's."""
        snapshot = _synthetic_snapshot(500)
        verifier = IncrementalVerifier()
        first = verifier.verify(snapshot)
        per_switch = first.classes_checked // 4
        assert per_switch * 4 == first.classes_checked
        touched = _touch_first_switch(snapshot)
        report = verifier.verify(touched)
        assert verifier.classes_traced == per_switch + 1
        assert verifier.classes_reused == first.classes_checked - per_switch
        assert report.classes_checked == first.classes_checked + 1
        assert report == verify_snapshot(touched)

    def test_strictness_and_invariants_flow_through(self, parta_testbed):
        tb, _svc = parta_testbed
        snapshot = snapshot_testbed(tb)
        scoped = IncrementalVerifier(invariants=("V1", "V2"),
                                     strict_cookies=False)
        report = scoped.verify(snapshot)
        assert report.invariants == ("V1", "V2")
        assert report == verify_snapshot(snapshot, invariants=("V1", "V2"),
                                         strict_cookies=False)

    def test_bound_testbed_snapshots_itself(self):
        tb, _svc = make_parta_testbed(rounds=2)
        verifier = IncrementalVerifier(testbed=tb)
        report = verifier.verify()
        assert report.ok, report.to_text()
        assert verifier.runs == 1

"""Planted-violation mutations: break a healthy snapshot on purpose.

Every mutation is *pure snapshot surgery* — it returns a new
:class:`NetworkSnapshot` value and never touches the live simulation — and
comes with the single invariant ID the verifier must flag it with (and
nothing else). The :data:`PLANTED` registry drives both the CLI
(``python -m repro.verify --planted``) and the mutation test suite: a
checker that misses a plant, or flags it under the wrong invariant, fails
both.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Tuple

from repro.core.cookies import KIND_ROUTE, KIND_SERVICE, make_cookie
from repro.openflow.actions import Action, OutputAction, SetFieldAction
from repro.openflow.constants import OFPP_CONTROLLER

from repro.verify.invariants import _find_reverse, _rewrite_endpoint
from repro.verify.model import (
    V1_BLACKHOLE,
    V2_LOOP,
    V3_TRANSPARENCY,
    V4_COHERENCE,
    V5_SHADOWING,
)
from repro.verify.snapshot import LinkView, NetworkSnapshot, RuleView, SwitchView

#: ports/dpids guaranteed unused by the testbeds (small port numbers, dpid 1..n)
_LOOP_PORT = 991
_GHOST_DPID = 999
_VOID_PORT = 4077


class NothingToMutate(ValueError):
    """The snapshot holds no first-hop service flow to corrupt."""


def _first_hop(snapshot: NetworkSnapshot) -> Tuple[SwitchView, RuleView]:
    """The first installed client→edge redirect, deterministically."""
    for view in snapshot.switches:
        for rule in view.rules:  # table order
            if (snapshot.service(rule.match.exact_value("ipv4_dst"),
                                 rule.match.exact_value("tcp_dst")) is None
                    or rule.match.exact_value("ipv4_src") is None):
                continue
            if _rewrite_endpoint(rule) is not None:
                return view, rule
    raise NothingToMutate("no first-hop redirect rule in snapshot")


def _swap_switch(snapshot: NetworkSnapshot,
                 replacement: SwitchView) -> NetworkSnapshot:
    switches = tuple(replacement if view.dpid == replacement.dpid else view
                     for view in snapshot.switches)
    return dataclasses.replace(snapshot, switches=switches)


def _table_order(rules: List[RuleView]) -> Tuple[RuleView, ...]:
    return tuple(sorted(rules, key=lambda r: (-r.priority, r.seq)))


def _with_rules(view: SwitchView, add: Tuple[RuleView, ...] = (),
                drop: Tuple[RuleView, ...] = (),
                swap: Optional[Tuple[RuleView, RuleView]] = None,
                ) -> SwitchView:
    rules = [r for r in view.rules if r not in drop]
    if swap is not None:
        rules = [swap[1] if r is swap[0] else r for r in rules]
    rules.extend(add)
    return dataclasses.replace(view, rules=_table_order(rules))


def _next_seq(view: SwitchView) -> int:
    return max((r.seq for r in view.rules), default=0) + 1


def _replace_output(rule: RuleView, port: int) -> RuleView:
    actions: Tuple[Action, ...] = tuple(
        OutputAction(port) if isinstance(a, OutputAction) else a
        for a in rule.actions)
    return dataclasses.replace(rule, actions=actions)


# ---------------------------------------------------------------------------
# the plants
# ---------------------------------------------------------------------------


def plant_blackhole(snapshot: NetworkSnapshot) -> NetworkSnapshot:
    """Point a redirect at a port with no host and no link → V1."""
    view, rule = _first_hop(snapshot)
    return _swap_switch(snapshot, _with_rules(
        view, swap=(rule, _replace_output(rule, _VOID_PORT))))


def plant_loop(snapshot: NetworkSnapshot) -> NetworkSnapshot:
    """Bounce the rewritten header between two switches forever → V2."""
    view, rule = _first_hop(snapshot)
    endpoint = _rewrite_endpoint(rule)
    assert endpoint is not None
    client = rule.match.exact_value("ipv4_src")
    from repro.openflow.match import Match
    rewritten = Match(eth_type=0x0800, ip_proto=6, ipv4_src=client,
                      ipv4_dst=endpoint[0], tcp_dst=endpoint[1])
    seq = _next_seq(view)
    bounce_out = RuleView(match=rewritten, priority=rule.priority + 5,
                          seq=seq, cookie=rule.cookie, flags=0,
                          actions=(OutputAction(_LOOP_PORT),))
    patched = _with_rules(
        view, add=(bounce_out,),
        swap=(rule, _replace_output(rule, _LOOP_PORT)))
    ghost = SwitchView(
        dpid=_GHOST_DPID, name="ghost",
        rules=(RuleView(match=rewritten, priority=rule.priority, seq=1,
                        cookie=rule.cookie, flags=0,
                        actions=(OutputAction(1),)),))
    adjacency = snapshot.adjacency + (
        LinkView(dpid=view.dpid, port_no=_LOOP_PORT,
                 peer_dpid=_GHOST_DPID, peer_port=1),
        LinkView(dpid=_GHOST_DPID, port_no=1,
                 peer_dpid=view.dpid, peer_port=_LOOP_PORT))
    switches = tuple(patched if v.dpid == view.dpid else v
                     for v in snapshot.switches) + (ghost,)
    return dataclasses.replace(snapshot, switches=switches,
                               adjacency=adjacency)


def drop_reverse_rewrite(snapshot: NetworkSnapshot) -> NetworkSnapshot:
    """Remove the downstream half of a redirect plan → V3 (asymmetric)."""
    view, rule = _first_hop(snapshot)
    endpoint = _rewrite_endpoint(rule)
    client = rule.match.exact_value("ipv4_src")
    assert endpoint is not None and client is not None
    reverse = _find_reverse(view, endpoint, client)
    if reverse is None:
        raise NothingToMutate("redirect already lacks its reverse rule")
    return _swap_switch(snapshot, _with_rules(view, drop=(reverse,)))


def corrupt_reverse_rewrite(snapshot: NetworkSnapshot) -> NetworkSnapshot:
    """Make the reply keep the edge source address → V3 (identity broken)."""
    view, rule = _first_hop(snapshot)
    endpoint = _rewrite_endpoint(rule)
    client = rule.match.exact_value("ipv4_src")
    assert endpoint is not None and client is not None
    reverse = _find_reverse(view, endpoint, client)
    if reverse is None:
        raise NothingToMutate("redirect already lacks its reverse rule")
    actions: Tuple[Action, ...] = tuple(
        SetFieldAction("ipv4_src", endpoint[0])
        if isinstance(a, SetFieldAction) and a.field == "ipv4_src" else a
        for a in reverse.actions)
    corrupted = dataclasses.replace(reverse, actions=actions)
    return _swap_switch(snapshot, _with_rules(view,
                                              swap=(reverse, corrupted)))


def plant_stale_cookie(snapshot: NetworkSnapshot) -> NetworkSnapshot:
    """Book load for a cookie no switch carries → V4 (strict mode)."""
    control = snapshot.control
    cluster = (control.live_endpoints[0].cluster
               if control.live_endpoints else "docker-egs")
    cookie = make_cookie(control.epoch, KIND_SERVICE, 0xABCDE)
    existing = {c for c, _ in control.cookie_cluster}
    if cookie in existing:
        raise NothingToMutate("sentinel cookie collides with a live plan")
    patched = dataclasses.replace(
        control, cookie_cluster=control.cookie_cluster + ((cookie, cluster),))
    return dataclasses.replace(snapshot, control=patched)


def shadow_redirect(snapshot: NetworkSnapshot) -> NetworkSnapshot:
    """Install a higher-priority rule covering a redirect → V5."""
    view, rule = _first_hop(snapshot)
    shadow = RuleView(match=rule.match, priority=rule.priority + 10,
                      seq=_next_seq(view),
                      cookie=make_cookie(snapshot.control.epoch,
                                         KIND_ROUTE, 0),
                      flags=0, actions=(OutputAction(OFPP_CONTROLLER),))
    return _swap_switch(snapshot, _with_rules(view, add=(shadow,)))


#: name -> (mutator, the one invariant ID it must trip)
PLANTED: Tuple[Tuple[str, Callable[[NetworkSnapshot], NetworkSnapshot], str], ...] = (
    ("blackhole", plant_blackhole, V1_BLACKHOLE),
    ("loop", plant_loop, V2_LOOP),
    ("asymmetric-rewrite", drop_reverse_rewrite, V3_TRANSPARENCY),
    ("leaky-reverse-rewrite", corrupt_reverse_rewrite, V3_TRANSPARENCY),
    ("stale-cookie", plant_stale_cookie, V4_COHERENCE),
    ("shadowed-redirect", shadow_redirect, V5_SHADOWING),
)

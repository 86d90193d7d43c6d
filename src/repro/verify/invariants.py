"""The invariant checkers V1–V5 (docs/verification.md is the contract).

Each checker is a pure function of the snapshot (plus prebuilt rule
indices) returning :class:`Violation` tuples; ``repro.verify.checker``
calls them in check order and merges their findings into one report.

Classification of service flows mirrors the controller's resync audit
(``TransparentEdgeController._classify_service_flow``): a *first-hop*
upstream rule matches a registered (vIP, port) and rewrites toward an
endpoint; a *transit* rule matches an already-rewritten header; a
*downstream* rule matches traffic sourced from an endpoint.

V4 deliberately requires cookie bookkeeping only for **first-hop** rules:
in a healthy run the first hop idle-expires milliseconds before the other
hops of the same plan (it saw the last packet first), and its FlowRemoved
pops the cookie from the controller ledger while downstream rules are
still draining — flagging those would make every quiesce point noisy.
The reverse direction (every booked cookie backed by a first-hop rule
somewhere) is gated by ``strict_cookies`` because a FlowRemoved can
legitimately be in flight — or lost to an outage until the next resync.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.cookies import KIND_SERVICE, cookie_kind
from repro.netsim.addresses import IPv4, MAC
from repro.openflow.actions import SetFieldAction
from repro.openflow.flowtable import BucketKey, bucket_key

from repro.verify.headerspace import HeaderClass
from repro.verify.model import (
    V1_BLACKHOLE,
    V2_LOOP,
    V3_TRANSPARENCY,
    V4_COHERENCE,
    V5_SHADOWING,
    Violation,
)
from repro.verify.snapshot import NetworkSnapshot, RuleView, SwitchView
from repro.verify.trace import RuleIndex, trace_class


def _set_fields(rule: RuleView) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for action in rule.actions:
        if isinstance(action, SetFieldAction):
            out[action.field] = action.value
    return out


def _rewrite_endpoint(rule: RuleView) -> Optional[Tuple[IPv4, int]]:
    """(ip, port) a rule rewrites the destination toward, if it does."""
    sets = _set_fields(rule)
    dst = sets.get("ipv4_dst")
    if dst is None:
        return None
    port = sets.get("tcp_dst", rule.match.exact_value("tcp_dst"))
    if port is None:
        return None
    return dst, port


# ---------------------------------------------------------------------------
# V1 + V2 — per-class reachability and loop freedom
# ---------------------------------------------------------------------------


def class_violations(snapshot: NetworkSnapshot,
                     indices: Dict[int, RuleIndex],
                     cls: HeaderClass,
                     ) -> Tuple[Violation, ...]:
    """Trace one header class and judge its terminals (V1, V2)."""
    trace = trace_class(snapshot, indices, cls)
    violations: List[Violation] = []
    subject = cls.subject()
    for terminal in trace.terminals:
        if terminal.kind == "loop":
            violations.append(Violation(
                V2_LOOP, terminal.dpid, subject,
                "forwarding loop: the header re-enters a switch unchanged "
                "(rewrite cycle or hop budget exhausted)"))
    service = cls.field_dict()
    svc = snapshot.service(service.get("ipv4_dst"), service.get("tcp_dst"))
    if svc is None or trace.has_loop():
        # Not service traffic (nothing promised), or already flagged as V2 —
        # the loop is the root cause, don't double-report it as a blackhole.
        return tuple(violations)
    for terminal in trace.terminals:
        violation = _judge_service_terminal(snapshot, svc.addr, terminal)
        if violation is not None:
            violations.append(Violation(V1_BLACKHOLE, terminal.dpid,
                                        subject, violation))
    return tuple(violations)


def _judge_service_terminal(snapshot: NetworkSnapshot, service_addr: IPv4,
                            terminal: Any) -> Optional[str]:
    """None when the terminal is an acceptable fate for service traffic."""
    if terminal.kind == "controller":
        return None  # packet-in: the controller will decide afresh
    if terminal.kind == "drop":
        return ("blackholed: no matching rule and no table-miss entry "
                "(packet silently dropped)")
    if terminal.kind == "flood":
        return "service traffic flooded instead of forwarded"
    # egress: a host must be attached and the header must address it
    fields = dict(terminal.fields)
    host = snapshot.host_at(terminal.dpid, terminal.port_no)
    if host is None:
        return (f"forwarded out port {terminal.port_no} with no attached "
                f"host or fabric link")
    final_dst = fields.get("ipv4_dst")
    if host.ip != final_dst:
        return (f"delivered to host {host.ip} but header addresses "
                f"{final_dst} (mis-rewrite or stale route)")
    if final_dst == service_addr:
        return None  # un-rewritten delivery to the cloud origin itself
    if snapshot.endpoint(final_dst, fields.get("tcp_dst")) is None:
        return (f"redirected to {final_dst}:{fields.get('tcp_dst')} which "
                f"is not a live edge endpoint")
    return None


# ---------------------------------------------------------------------------
# V3 — transparency: redirect ∘ reverse == identity
# ---------------------------------------------------------------------------


def transparency_violations(snapshot: NetworkSnapshot,
                            view: SwitchView) -> Tuple[Violation, ...]:
    violations: List[Violation] = []
    for rule in view.rules:
        dst = rule.match.exact_value("ipv4_dst")
        tcp_dst = rule.match.exact_value("tcp_dst")
        if snapshot.service(dst, tcp_dst) is None:
            continue
        sets = _set_fields(rule)
        if "ipv4_dst" not in sets:
            continue  # matches the vIP but does not redirect (e.g. transit)
        subject = rule.label()
        endpoint = _rewrite_endpoint(rule)
        if endpoint is None:
            violations.append(Violation(
                V3_TRANSPARENCY, view.dpid, subject,
                "partial redirect: rewrites ipv4_dst without a resolvable "
                "destination port"))
            continue
        client = rule.match.exact_value("ipv4_src")
        if client is None:
            violations.append(Violation(
                V3_TRANSPARENCY, view.dpid, subject,
                "redirect is not client-scoped: no ipv4_src match, so no "
                "reverse rewrite can be paired"))
            continue
        reverse = _find_reverse(view, endpoint, client)
        if reverse is None:
            violations.append(Violation(
                V3_TRANSPARENCY, view.dpid, subject,
                f"missing reverse rewrite: no rule matches replies from "
                f"{endpoint[0]}:{endpoint[1]} to {client}"))
            continue
        violations.extend(_identity_violations(
            snapshot, view, rule, reverse, client, dst, tcp_dst))
    return tuple(violations)


def _find_reverse(view: SwitchView, endpoint: Tuple[IPv4, int],
                  client: IPv4) -> Optional[RuleView]:
    for rule in view.rules:  # table order: the first hit is the live one
        if (rule.match.exact_value("ipv4_src") == endpoint[0]
                and rule.match.exact_value("tcp_src") == endpoint[1]
                and rule.match.exact_value("ipv4_dst") == client):
            return rule
    return None


def _identity_violations(snapshot: NetworkSnapshot, view: SwitchView,
                         up: RuleView, down: RuleView, client: IPv4,
                         service_addr: Any, service_port: Any,
                         ) -> List[Violation]:
    """rewrite ∘ swap ∘ reverse must equal swap on the ip/tcp header."""
    ephemeral = 54321  # opaque client port; must round-trip untouched
    header = {"ipv4_src": client, "ipv4_dst": service_addr,
              "tcp_src": ephemeral, "tcp_dst": service_port}

    def swap(h: Dict[str, Any]) -> Dict[str, Any]:
        return {"ipv4_src": h["ipv4_dst"], "ipv4_dst": h["ipv4_src"],
                "tcp_src": h["tcp_dst"], "tcp_dst": h["tcp_src"]}

    def rewrite(h: Dict[str, Any], rule: RuleView) -> Dict[str, Any]:
        out = dict(h)
        for field, value in sorted(_set_fields(rule).items()):
            if field in out:
                out[field] = value
        return out

    reply = rewrite(swap(rewrite(header, up)), down)
    expected = swap(header)
    violations: List[Violation] = []
    subject = up.label()
    for field in ("ipv4_src", "ipv4_dst", "tcp_src", "tcp_dst"):
        if reply[field] != expected[field]:
            violations.append(Violation(
                V3_TRANSPARENCY, view.dpid, subject,
                f"rewrite∘reverse is not the identity: reply {field} is "
                f"{reply[field]} where the client expects {expected[field]} "
                f"(the edge address leaks)"))
    # The reply must also masquerade at layer 2: the client resolved the
    # gateway MAC and would discard frames from an unknown source.
    down_sets = _set_fields(down)
    eth_src = down_sets.get("eth_src")
    if eth_src is not None and eth_src != snapshot.control.vgw_mac:
        violations.append(Violation(
            V3_TRANSPARENCY, view.dpid, subject,
            f"reply eth_src rewritten to {eth_src}, not the gateway MAC "
            f"{snapshot.control.vgw_mac}"))
    client_host = snapshot.host(client)
    eth_dst = down_sets.get("eth_dst")
    if (client_host is not None and isinstance(eth_dst, MAC)
            and eth_dst != client_host.mac):
        violations.append(Violation(
            V3_TRANSPARENCY, view.dpid, subject,
            f"reply eth_dst {eth_dst} does not address the client's MAC "
            f"{client_host.mac}"))
    return violations


# ---------------------------------------------------------------------------
# V4 — controller/switch coherence
# ---------------------------------------------------------------------------


def coherence_violations(snapshot: NetworkSnapshot,
                         strict_cookies: bool = True) -> Tuple[Violation, ...]:
    violations: List[Violation] = []
    control = snapshot.control
    booked = dict(control.cookie_cluster)
    memory = {(m.client, m.service_addr, m.service_port):
              (m.endpoint_ip, m.endpoint_port, m.cluster)
              for m in control.memory}
    first_hop_cookies: Dict[int, None] = {}
    for view in snapshot.switches:
        for rule in view.rules:
            if cookie_kind(rule.cookie) != KIND_SERVICE:
                continue
            subject = rule.label()
            dst = rule.match.exact_value("ipv4_dst")
            tcp_dst = rule.match.exact_value("tcp_dst")
            src = rule.match.exact_value("ipv4_src")
            tcp_src = rule.match.exact_value("tcp_src")
            if snapshot.service(dst, tcp_dst) is not None:
                violations.extend(_first_hop_coherence(
                    snapshot, view, rule, subject, booked, memory,
                    first_hop_cookies))
            elif snapshot.endpoint(dst, tcp_dst) is not None:
                continue  # transit hop of a live plan
            elif snapshot.endpoint(src, tcp_src) is not None:
                continue  # downstream hop of a live plan
            else:
                violations.append(Violation(
                    V4_COHERENCE, view.dpid, subject,
                    "service-kind flow matches no registered service and "
                    "no live endpoint (stale rule a resync must GC)"))
    if strict_cookies:
        for cookie, cluster in sorted(booked.items()):
            if cookie not in first_hop_cookies:
                violations.append(Violation(
                    V4_COHERENCE, -1, f"cookie[{cookie:#x}]",
                    f"controller books load on cluster {cluster!r} for this "
                    f"cookie but no switch carries its first-hop rule"))
    return tuple(violations)


def _first_hop_coherence(snapshot: NetworkSnapshot, view: SwitchView,
                         rule: RuleView, subject: str,
                         booked: Dict[int, str],
                         memory: Dict[Tuple[IPv4, IPv4, int],
                                      Tuple[IPv4, int, str]],
                         first_hop_cookies: Dict[int, None],
                         ) -> List[Violation]:
    violations: List[Violation] = []
    endpoint = _rewrite_endpoint(rule)
    if endpoint is None:
        violations.append(Violation(
            V4_COHERENCE, view.dpid, subject,
            "first-hop service flow does not rewrite toward an endpoint"))
        return violations
    live = snapshot.endpoint(endpoint[0], endpoint[1])
    if live is None:
        violations.append(Violation(
            V4_COHERENCE, view.dpid, subject,
            f"redirects to {endpoint[0]}:{endpoint[1]} which is not a live "
            f"endpoint of any cluster"))
        return violations
    dst = rule.match.exact_value("ipv4_dst")
    tcp_dst = rule.match.exact_value("tcp_dst")
    if (live.service_addr, live.service_port) != (dst, tcp_dst):
        violations.append(Violation(
            V4_COHERENCE, view.dpid, subject,
            f"endpoint {endpoint[0]}:{endpoint[1]} serves "
            f"{live.service_addr}:{live.service_port}, not the matched "
            f"service {dst}:{tcp_dst}"))
    first_hop_cookies[rule.cookie] = None
    cluster = booked.get(rule.cookie)
    if cluster is None:
        violations.append(Violation(
            V4_COHERENCE, view.dpid, subject,
            f"cookie {rule.cookie:#x} is unknown to the controller ledger "
            f"(no load bookkeeping; FlowRemoved would be misaccounted)"))
    elif cluster != live.cluster:
        violations.append(Violation(
            V4_COHERENCE, view.dpid, subject,
            f"cookie {rule.cookie:#x} is booked to cluster {cluster!r} but "
            f"the rule rewrites into {live.cluster!r}"))
    client = rule.match.exact_value("ipv4_src")
    if snapshot.control.use_flow_memory and client is not None:
        remembered = memory.get((client, dst, tcp_dst))
        if remembered is not None and remembered[:2] != endpoint:
            violations.append(Violation(
                V4_COHERENCE, view.dpid, subject,
                f"FlowMemory remembers {remembered[0]}:{remembered[1]} for "
                f"this client/service but the installed rule redirects to "
                f"{endpoint[0]}:{endpoint[1]}"))
    return violations


# ---------------------------------------------------------------------------
# V5 — shadowed (dead) rules
# ---------------------------------------------------------------------------


def shadowing_violations(view: SwitchView) -> Tuple[Violation, ...]:
    violations: List[Violation] = []
    # Bucket by the fast-path key: a covering rule's exact (src, dst) is
    # either equal to the covered rule's or unconstrained, so only four
    # buckets can hold candidates — same pruning as the lookup path.
    buckets: Dict[BucketKey, List[RuleView]] = {}
    for rule in view.rules:
        buckets.setdefault(bucket_key(rule.match), []).append(rule)
    for rule in view.rules:
        src, dst = bucket_key(rule.match)
        shadow = None
        for key in ((src, dst), (src, None), (None, dst), (None, None)):
            for candidate in buckets.get(key, ()):  # table order
                if (candidate.sort_key < rule.sort_key
                        and candidate.match.covers(rule.match)):
                    if shadow is None or candidate.sort_key < shadow.sort_key:
                        shadow = candidate
                    break  # later candidates in this bucket rank lower
        if shadow is not None:
            violations.append(Violation(
                V5_SHADOWING, view.dpid, rule.label(),
                f"dead rule: fully shadowed by {shadow.label()} "
                f"(priority {shadow.priority} vs {rule.priority})"))
    return tuple(violations)

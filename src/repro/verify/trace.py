"""Symbolic forwarding traces: push one header class through the rules.

The tracer mirrors the production data path exactly:

* rule selection replicates ``FlowTable.lookup`` — highest priority wins,
  FIFO (lowest install ``seq``) among equals, with the same
  (ipv4_src, ipv4_dst) index so 100k-rule tables stay cheap;
* action execution replicates the switch's run of a rule's compiled
  program (``OpenFlowSwitch._execute``) — ``SetFieldAction``s accumulate and
  each ``OutputAction`` emits the header *as rewritten so far* (trailing
  set-fields are discarded), with layer checks (a tcp field rewrite on a
  non-TCP header is a no-op, as on a real packet);
* an emission whose port is an inter-switch link re-enters the peer's table
  with ``in_port`` set to the peer port.

A trace terminates in one or more :class:`Terminal`\\ s: ``controller``
(packet-in), ``drop`` (no matching rule), ``flood``, ``egress`` (left the
fabric through a port — the invariants decide whether a host is there), or
``loop`` (a (switch, header) state repeated, or the hop budget ran out —
with rewrites, revisiting a switch with *identical* headers can only recur
forever).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.openflow.actions import OutputAction, SetFieldAction
from repro.openflow.constants import (
    OFPP_ALL,
    OFPP_CONTROLLER,
    OFPP_FLOOD,
    OFPP_IN_PORT,
)
from repro.openflow.flowtable import BucketKey, bucket_key

from repro.verify.headerspace import FieldsKey, HeaderClass, canonical
from repro.verify.snapshot import NetworkSnapshot, RuleView, SwitchView

#: safety budget: no sane fabric forwards a frame through this many tables
MAX_HOPS = 64

#: fields whose presence marks the layer a SetFieldAction may touch
_LAYER_KEYS = {
    "ipv4_src": "ipv4_src", "ipv4_dst": "ipv4_src",
    "tcp_src": "tcp_src", "tcp_dst": "tcp_src",
    "udp_src": "udp_src", "udp_dst": "udp_src",
}


@dataclass(frozen=True)
class Terminal:
    """Where (one copy of) the traced header ended up."""

    kind: str  # "controller" | "drop" | "flood" | "egress" | "loop"
    dpid: int
    port_no: int  # egress port; -1 when not applicable
    fields: FieldsKey  # header at the terminal


@dataclass(frozen=True)
class TraceResult:
    terminals: Tuple[Terminal, ...]
    hops: int

    def has_loop(self) -> bool:
        return any(t.kind == "loop" for t in self.terminals)


class RuleIndex:
    """``FlowTable.lookup`` over a :class:`SwitchView`: the same index (one
    list per ``bucket_key``, in table order) walked with the same stop rule."""

    def __init__(self, view: SwitchView):
        self.view = view
        index: Dict[BucketKey, List[RuleView]] = {}
        for rule in view.rules:  # table order: (-priority, seq)
            index.setdefault(bucket_key(rule.match), []).append(rule)
        self._index = index

    def lookup(self, fields: Dict[str, Any]) -> Optional[RuleView]:
        index = self._index
        src = fields.get("ipv4_src")
        dst = fields.get("ipv4_dst")
        best: Optional[RuleView] = None
        for key in ((src, dst), (src, None), (None, dst), (None, None)):
            if key not in index:
                continue
            for rule in index[key]:
                if best is not None and rule.sort_key >= best.sort_key:
                    break
                if rule.match.matches(fields):
                    best = rule
                    break
        return best


def build_indices(snapshot: NetworkSnapshot) -> Dict[int, RuleIndex]:
    return {view.dpid: RuleIndex(view) for view in snapshot.switches}


def _apply_symbolic(fields: Dict[str, Any], actions: Tuple[Any, ...],
                    ) -> List[Tuple[Dict[str, Any], int]]:
    """Replicate the switch's action execution on a field-dict: returns the
    (rewritten-so-far header, out_port) emitted by each OutputAction."""
    emissions: List[Tuple[Dict[str, Any], int]] = []
    current = fields
    dirty = False
    for action in actions:
        if isinstance(action, SetFieldAction):
            layer_key = _LAYER_KEYS.get(action.field, action.field)
            if layer_key in current or action.field.startswith("eth_"):
                if not dirty:
                    current = dict(current)
                    dirty = True
                current[action.field] = action.value
        elif isinstance(action, OutputAction):
            emissions.append((current, action.port))
            if dirty:
                current = dict(current)  # later set-fields fork the header
    return emissions


def trace_class(snapshot: NetworkSnapshot, indices: Dict[int, RuleIndex],
                cls: HeaderClass, max_hops: int = MAX_HOPS) -> TraceResult:
    """Forward one header class to all its terminals."""
    terminals: List[Terminal] = []
    seen: Dict[Tuple[int, FieldsKey], None] = {}
    # LIFO worklist, pushed in reverse so copies trace in emission order.
    work: List[Tuple[int, Dict[str, Any]]] = [(cls.dpid, cls.field_dict())]
    hops = 0
    while work:
        dpid, fields = work.pop()
        key = (dpid, canonical(fields))
        if key in seen:
            terminals.append(Terminal("loop", dpid, -1, key[1]))
            continue
        seen[key] = None
        hops += 1
        if hops > max_hops:
            terminals.append(Terminal("loop", dpid, -1, key[1]))
            continue
        index = indices.get(dpid)
        rule = index.lookup(fields) if index is not None else None
        if rule is None:
            terminals.append(
                Terminal("drop", dpid, fields.get("in_port", -1), key[1]))
            continue
        emissions = _apply_symbolic(fields, rule.actions)
        if not emissions:
            terminals.append(Terminal("drop", dpid, -1, key[1]))
            continue
        for out_fields, port in reversed(emissions):
            if port == OFPP_CONTROLLER:
                terminals.append(
                    Terminal("controller", dpid, port, canonical(out_fields)))
            elif port in (OFPP_FLOOD, OFPP_ALL):
                terminals.append(
                    Terminal("flood", dpid, port, canonical(out_fields)))
            else:
                out_port = (fields.get("in_port", 0)
                            if port == OFPP_IN_PORT else port)
                peer = snapshot.peer(dpid, out_port)
                if peer is not None:
                    next_fields = dict(out_fields)
                    next_fields["in_port"] = peer[1]
                    work.append((peer[0], next_fields))
                else:
                    terminals.append(Terminal("egress", dpid, out_port,
                                              canonical(out_fields)))
    return TraceResult(terminals=tuple(terminals), hops=hops)

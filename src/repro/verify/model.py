"""Structured verification results: :class:`Violation` and the report.

The verifier never prints ad hoc — every finding is a :class:`Violation`
carrying the invariant ID (``V1``..``V5``), the datapath it anchors to, a
stable *subject* (the rule or header class concerned) and a human-readable
detail. Reports order violations deterministically, so two checks of the
same network state produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Tuple

#: invariant IDs (docs/verification.md has the long-form contract)
V1_BLACKHOLE = "V1"
V2_LOOP = "V2"
V3_TRANSPARENCY = "V3"
V4_COHERENCE = "V4"
V5_SHADOWING = "V5"

#: id -> one-line meaning, in check order
INVARIANTS: Dict[str, str] = {
    V1_BLACKHOLE: ("no blackhole: every registered service class reaches a "
                   "live edge instance, the cloud origin, or the controller"),
    V2_LOOP: "no forwarding loop, including under set-field rewrites",
    V3_TRANSPARENCY: ("transparency: every client->edge redirect has a "
                      "matching reverse rewrite and rewrite∘reverse is the "
                      "identity on headers"),
    V4_COHERENCE: ("controller/switch coherence: service-flow cookies map to "
                   "live controller bookkeeping and vice versa"),
    V5_SHADOWING: "no shadowed/dead rules",
}

#: the default checker scope
ALL_INVARIANTS: Tuple[str, ...] = tuple(INVARIANTS)


@dataclass(frozen=True, order=True)
class Violation:
    """One invariant violation, totally ordered for stable reports."""

    invariant: str
    #: datapath the violation anchors to; -1 for network-wide findings
    dpid: int
    #: stable identifier of the offending rule / header class
    subject: str
    detail: str

    def format(self) -> str:
        where = "network" if self.dpid < 0 else f"dpid={self.dpid}"
        return f"[{self.invariant}] {where} {self.subject}: {self.detail}"


@dataclass(frozen=True)
class VerificationReport:
    """The outcome of one verification pass."""

    violations: Tuple[Violation, ...]
    classes_checked: int
    rules_checked: int
    switches_checked: int
    invariants: Tuple[str, ...] = ALL_INVARIANTS

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts_by_invariant(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        return counts

    def to_text(self) -> str:
        header = (f"verified {self.classes_checked} header classes / "
                  f"{self.rules_checked} rules / {self.switches_checked} "
                  f"switches [{','.join(self.invariants)}]")
        if self.ok:
            return f"{header}\nOK — zero violations"
        lines = [header, f"{len(self.violations)} violation(s):"]
        lines += [f"  {violation.format()}" for violation in self.violations]
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "ok": self.ok,
            "classes_checked": self.classes_checked,
            "rules_checked": self.rules_checked,
            "switches_checked": self.switches_checked,
            "invariants": list(self.invariants),
            "violations": [
                {"invariant": v.invariant, "dpid": v.dpid,
                 "subject": v.subject, "detail": v.detail}
                for v in self.violations
            ],
        }, indent=2, sort_keys=True)

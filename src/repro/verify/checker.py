"""The checker: one full verification of a snapshot per call.

:func:`verify_snapshot` is the single entry point; the testbed and
control-plane variants only choose the vantage point the snapshot is taken
from. Every call re-derives everything from the snapshot, so a report is a
pure function of the network state it describes.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.verify.headerspace import enumerate_classes
from repro.verify.invariants import (
    class_violations,
    coherence_violations,
    shadowing_violations,
    transparency_violations,
)
from repro.verify.model import (
    ALL_INVARIANTS,
    V1_BLACKHOLE,
    V2_LOOP,
    V3_TRANSPARENCY,
    V4_COHERENCE,
    V5_SHADOWING,
    VerificationReport,
    Violation,
)
from repro.verify.snapshot import NetworkSnapshot, snapshot_control_plane, snapshot_testbed
from repro.verify.trace import build_indices


def verify_snapshot(snapshot: NetworkSnapshot,
                    invariants: Tuple[str, ...] = ALL_INVARIANTS,
                    strict_cookies: bool = True,
                    ) -> VerificationReport:
    """Check ``invariants`` over ``snapshot``; pure, mutation-free."""
    selected = tuple(i for i in ALL_INVARIANTS if i in invariants)
    violations: list[Violation] = []
    classes_checked = 0

    if V1_BLACKHOLE in selected or V2_LOOP in selected:
        indices = build_indices(snapshot)
        classes = enumerate_classes(snapshot)
        classes_checked = len(classes)
        for cls in classes:
            violations.extend(v for v in class_violations(snapshot, indices, cls)
                              if v.invariant in selected)

    if V3_TRANSPARENCY in selected:
        for view in snapshot.switches:
            violations.extend(transparency_violations(snapshot, view))

    if V5_SHADOWING in selected:
        for view in snapshot.switches:
            violations.extend(shadowing_violations(view))

    if V4_COHERENCE in selected:
        violations.extend(coherence_violations(snapshot, strict_cookies))

    return VerificationReport(
        violations=tuple(sorted(set(violations))),
        classes_checked=classes_checked,
        rules_checked=snapshot.total_rules,
        switches_checked=len(snapshot.switches),
        invariants=selected)


def verify_testbed(tb: Any,
                   invariants: Tuple[str, ...] = ALL_INVARIANTS,
                   strict_cookies: bool = True,
                   ) -> VerificationReport:
    """Snapshot a :class:`Testbed` (ground-truth topology) and verify it."""
    return verify_snapshot(snapshot_testbed(tb), invariants=invariants,
                           strict_cookies=strict_cookies)


def verify_control_plane(manager: Any, controller: Any,
                         invariants: Tuple[str, ...] = ALL_INVARIANTS,
                         strict_cookies: bool = True,
                         ) -> VerificationReport:
    """Snapshot from the controller's vantage point and verify it."""
    return verify_snapshot(snapshot_control_plane(manager, controller),
                           invariants=invariants,
                           strict_cookies=strict_cookies)

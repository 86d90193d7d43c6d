"""``repro.verify`` — static data-plane verification (Veriflow-style).

Snapshots the network (flow tables, topology, controller bookkeeping),
partitions header space into equivalence classes, symbolically traces each
class through the installed rewrite pipelines, and checks the transparency
invariants V1–V5 (docs/verification.md). Ships the checker, planted-
violation mutations that prove it catches what it claims to, and a CLI:
``python -m repro.verify``.
"""

from repro.verify.checker import (
    verify_control_plane,
    verify_snapshot,
    verify_testbed,
)
from repro.verify.headerspace import HeaderClass, enumerate_classes
from repro.verify.model import (
    ALL_INVARIANTS,
    INVARIANTS,
    V1_BLACKHOLE,
    V2_LOOP,
    V3_TRANSPARENCY,
    V4_COHERENCE,
    V5_SHADOWING,
    VerificationReport,
    Violation,
)
from repro.verify.mutations import PLANTED
from repro.verify.snapshot import (
    NetworkSnapshot,
    snapshot_control_plane,
    snapshot_testbed,
)
from repro.verify.trace import trace_class

__all__ = [
    "ALL_INVARIANTS",
    "INVARIANTS",
    "V1_BLACKHOLE",
    "V2_LOOP",
    "V3_TRANSPARENCY",
    "V4_COHERENCE",
    "V5_SHADOWING",
    "HeaderClass",
    "NetworkSnapshot",
    "PLANTED",
    "VerificationReport",
    "Violation",
    "enumerate_classes",
    "snapshot_control_plane",
    "snapshot_testbed",
    "trace_class",
    "verify_control_plane",
    "verify_snapshot",
    "verify_testbed",
]

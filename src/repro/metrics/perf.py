"""Process-global hot-path performance counters.

The substrate's hot paths (event loop, flow-table lookup) each keep *per-instance* counters for tests and stats
replies. This module aggregates the same increments into one
process-global :class:`PerfCounters` so the experiment runner can report,
per regenerated artifact, how much simulation work it cost — without
holding references to every simulator, table, and switch a driver builds.

The counters are observability only: nothing in any simulation reads them
back, so they cannot perturb determinism. Each process carries its own
instance; the lockstep domain workers snapshot theirs around each domain's
work and ship the delta back to the parent with the domain's results.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["PerfCounters", "PERF", "snapshot", "delta"]


@dataclass
class PerfCounters:
    """Additive counters for the simulation hot paths.

    ``+``/``-`` compose snapshots: ``after - before`` is the cost of the
    work in between, and worker deltas sum into a run total with ``+``.

    The ``microflow_*`` fields (and ``microflow_hit_rate``) and
    ``memo_revalidations``/``memo_invalidations`` have no writer: the
    switch keeps no microflow cache and the controller no memo, so they
    read 0 and stay only because the performance ledger reports them.
    """

    events_executed: int = 0
    flow_lookups: int = 0
    flow_hits: int = 0
    microflow_hits: int = 0
    microflow_misses: int = 0
    microflow_evictions: int = 0
    microflow_flushes: int = 0
    memo_revalidations: int = 0
    memo_invalidations: int = 0

    def __add__(self, other: "PerfCounters") -> "PerfCounters":
        return PerfCounters(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        })

    def __sub__(self, other: "PerfCounters") -> "PerfCounters":
        return PerfCounters(**{
            f.name: getattr(self, f.name) - getattr(other, f.name)
            for f in fields(self)
        })

    @property
    def microflow_packets(self) -> int:
        return self.microflow_hits + self.microflow_misses

    @property
    def microflow_hit_rate(self) -> float:
        """Fraction of datapath packets answered by a microflow cache (0)."""
        packets = self.microflow_packets
        return self.microflow_hits / packets if packets else 0.0

    def as_dict(self) -> dict:
        record: dict = {f.name: getattr(self, f.name) for f in fields(self)}
        record["microflow_hit_rate"] = self.microflow_hit_rate
        return record


#: the live counters for this process; hot paths increment fields directly
PERF = PerfCounters()


def snapshot() -> PerfCounters:
    """Copy of the current process-global counters."""
    return PerfCounters(**{f.name: getattr(PERF, f.name) for f in fields(PERF)})


def delta(before: PerfCounters) -> PerfCounters:
    """Counters accumulated since ``before`` was snapshotted."""
    return snapshot() - before

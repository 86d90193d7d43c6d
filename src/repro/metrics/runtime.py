"""Per-artifact runtime accounting for the experiment runner.

The runner records, for every regenerated artifact, its wall time, CPU
time (parent process plus worker-pool children), how many cells it fanned
out, and whether the on-disk cache answered. :class:`RunReport` aggregates
those into the summary table the runner prints after the artifacts — the
observability half of the parallel/cache execution layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.metrics.perf import PerfCounters
from repro.metrics.report import Table, render_table

__all__ = ["ArtifactTiming", "RunReport"]


@dataclass(frozen=True)
class ArtifactTiming:
    """Runtime record for one regenerated artifact.

    ``perf`` carries the hot-path work the artifact cost — simulator events
    executed, flow-table lookups/hits — summed
    over the parent process and any pool workers, so a perf regression
    (e.g. a lookup suddenly missing the index) is visible on every run.
    """

    part: str
    name: str
    wall_s: float
    cpu_s: float
    cells: int = 0
    cache_hit: bool = False
    perf: PerfCounters = field(default_factory=PerfCounters)


@dataclass
class RunReport:
    """Aggregated runtime/cache accounting for one runner invocation."""

    jobs: int = 1
    timings: List[ArtifactTiming] = field(default_factory=list)
    cache_enabled: bool = False
    cache_stores: int = 0

    def add(self, timing: ArtifactTiming) -> None:
        self.timings.append(timing)

    @property
    def artifacts(self) -> int:
        return len(self.timings)

    @property
    def cache_hits(self) -> int:
        return sum(1 for t in self.timings if t.cache_hit)

    @property
    def cache_misses(self) -> int:
        return sum(1 for t in self.timings if not t.cache_hit)

    @property
    def total_wall_s(self) -> float:
        return sum(t.wall_s for t in self.timings)

    @property
    def total_cpu_s(self) -> float:
        return sum(t.cpu_s for t in self.timings)

    @property
    def total_cells(self) -> int:
        return sum(t.cells for t in self.timings)

    @property
    def total_perf(self) -> PerfCounters:
        total = PerfCounters()
        for timing in self.timings:
            total = total + timing.perf
        return total

    def as_table(self) -> Table:
        table = Table(
            title="Runner summary — wall/CPU/hot-path work per artifact",
            columns=["part", "artifact", "wall_s", "cpu_s", "cells", "cache",
                     "events", "lookups"],
            time_columns={"wall_s", "cpu_s"},
        )
        for timing in self.timings:
            table.add(part=timing.part, artifact=timing.name,
                      wall_s=timing.wall_s, cpu_s=timing.cpu_s,
                      cells=timing.cells,
                      cache="hit" if timing.cache_hit else "miss",
                      events=timing.perf.events_executed,
                      lookups=timing.perf.flow_lookups)
        cache_note = (f"cache: {self.cache_hits} hits / {self.cache_misses} misses "
                      f"/ {self.cache_stores} stores" if self.cache_enabled
                      else "cache: disabled")
        perf = self.total_perf
        table.note = (f"jobs={self.jobs}; {self.artifacts} artifacts in "
                      f"{self.total_wall_s:.1f}s wall / {self.total_cpu_s:.1f}s CPU; "
                      f"{self.total_cells} cells; {cache_note}; "
                      f"{perf.events_executed} sim events, "
                      f"{perf.flow_lookups} table lookups")
        return table

    def render(self) -> str:
        return render_table(self.as_table())

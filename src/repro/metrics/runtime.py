"""Per-artifact runtime accounting for the experiment runner.

The runner records, for every regenerated artifact, its wall time, CPU
time and the hot-path work it cost. :class:`RunReport` aggregates those
into the summary table the runner prints after the artifacts.
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
    executed, flow-table lookups/hits — so a perf regression (e.g. a lookup
    suddenly missing the index) is visible on every run.
    """

    part: str
    name: str
    wall_s: float
    cpu_s: float
    perf: PerfCounters = field(default_factory=PerfCounters)


@dataclass
class RunReport:
    """Aggregated runtime accounting for one runner invocation."""

    timings: List[ArtifactTiming] = field(default_factory=list)

    def add(self, timing: ArtifactTiming) -> None:
        self.timings.append(timing)

    @property
    def artifacts(self) -> int:
        return len(self.timings)

    @property
    def total_wall_s(self) -> float:
        return sum(t.wall_s for t in self.timings)

    @property
    def total_cpu_s(self) -> float:
        return sum(t.cpu_s for t in self.timings)

    @property
    def total_perf(self) -> PerfCounters:
        total = PerfCounters()
        for timing in self.timings:
            total = total + timing.perf
        return total

    def as_table(self) -> Table:
        table = Table(
            title="Runner summary — wall/CPU/hot-path work per artifact",
            columns=["part", "artifact", "wall_s", "cpu_s", "events", "lookups"],
            time_columns={"wall_s", "cpu_s"},
        )
        for timing in self.timings:
            table.add(part=timing.part, artifact=timing.name,
                      wall_s=timing.wall_s, cpu_s=timing.cpu_s,
                      events=timing.perf.events_executed,
                      lookups=timing.perf.flow_lookups)
        perf = self.total_perf
        table.note = (f"{self.artifacts} artifacts in "
                      f"{self.total_wall_s:.1f}s wall / {self.total_cpu_s:.1f}s CPU; "
                      f"{perf.events_executed} sim events, "
                      f"{perf.flow_lookups} table lookups")
        return table

    def render(self) -> str:
        return render_table(self.as_table())

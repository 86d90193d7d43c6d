"""The runner's per-artifact runtime accounting."""

from repro.metrics import ArtifactTiming, RunReport
from repro.metrics.perf import PerfCounters


def _report():
    report = RunReport()
    report.add(ArtifactTiming(part="a", name="A1", wall_s=2.0, cpu_s=6.0,
                              perf=PerfCounters(events_executed=10)))
    report.add(ArtifactTiming(part="b", name="Fig. 11", wall_s=0.1, cpu_s=0.0,
                              perf=PerfCounters(events_executed=5)))
    return report


class TestRunReport:
    def test_aggregates(self):
        report = _report()
        assert report.artifacts == 2
        assert report.total_wall_s == 2.1
        assert report.total_cpu_s == 6.0
        assert report.total_perf.events_executed == 15

    def test_table_rows_and_note(self):
        table = _report().as_table()
        assert [row["artifact"] for row in table.rows] == ["A1", "Fig. 11"]
        assert [row["events"] for row in table.rows] == [10, 5]
        assert table.columns == ["part", "artifact", "wall_s", "cpu_s",
                                 "events", "lookups"]
        assert "2 artifacts in 2.1s wall / 6.0s CPU" in table.note
        assert "15 sim events" in table.note

    def test_render_is_a_table(self):
        assert "Runner summary" in _report().render()

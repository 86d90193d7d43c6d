"""Hot-path perf counters: process-global accounting and runner wiring.

``repro.metrics.perf`` aggregates simulator events and flow-table lookups
process-wide; the runner attaches a per-artifact delta to its summary.
"""

from repro.metrics import perf
from repro.metrics.perf import PerfCounters
from repro.metrics.runtime import ArtifactTiming, RunReport
from repro.openflow import FlowEntry, FlowTable, Match, OutputAction
from repro.simcore import Simulator


class TestPerfCounters:
    def test_add_sub_compose(self):
        a = PerfCounters(events_executed=5, flow_lookups=3, flow_hits=2,
                         microflow_hits=8, microflow_misses=2)
        b = PerfCounters(events_executed=1, flow_lookups=1, flow_hits=1,
                         microflow_hits=1, microflow_misses=1)
        total = a + b
        assert total.events_executed == 6
        assert (total - b).flow_lookups == a.flow_lookups

    def test_merge_is_associative_and_commutative_across_shards(self):
        # Lockstep folds per-domain deltas into one total; any split of the
        # same work across N domains must merge back to the serial total.
        shards = [PerfCounters(events_executed=3 * i + 1,
                               flow_lookups=2 * i,
                               flow_hits=i,
                               microflow_hits=5 * i,
                               microflow_misses=i % 3)
                  for i in range(6)]
        serial = PerfCounters()
        for shard in shards:
            serial = serial + shard
        left_fold = sum(shards, PerfCounters())
        right_fold = shards[0]
        for shard in reversed(shards[1:]):
            right_fold = shard + right_fold
        pairwise = ((shards[0] + shards[1]) + (shards[2] + shards[3])) \
            + (shards[4] + shards[5])
        reordered = sum(reversed(shards), PerfCounters())
        assert serial == left_fold == right_fold == pairwise == reordered
        # and the split really was a partition, not copies
        assert serial.events_executed == sum(s.events_executed for s in shards)

    def test_hit_rate(self):
        c = PerfCounters(microflow_hits=3, microflow_misses=1)
        assert c.microflow_hit_rate == 0.75
        assert PerfCounters().microflow_hit_rate == 0.0

    def test_as_dict_round_trip(self):
        c = PerfCounters(events_executed=2, microflow_hits=1, microflow_misses=1)
        d = c.as_dict()
        assert d["events_executed"] == 2
        assert d["microflow_hit_rate"] == 0.5


class TestGlobalAccounting:
    def test_simulator_run_feeds_global_counter(self):
        before = perf.snapshot()
        sim = Simulator()
        for i in range(25):
            sim.schedule(i * 1e-3, lambda: None)
        sim.run()
        assert perf.delta(before).events_executed >= 25

    def test_flow_lookup_feeds_global_counter(self):
        before = perf.snapshot()
        sim = Simulator()
        table = FlowTable(sim)
        table.install(FlowEntry(match=Match(tcp_dst=80), priority=1,
                                actions=[OutputAction(1)]))
        table.lookup({"eth_type": 0x0800, "ip_proto": 6, "tcp_dst": 80})
        table.lookup({"eth_type": 0x0800, "ip_proto": 6, "tcp_dst": 22})
        delta = perf.delta(before)
        assert delta.flow_lookups == 2
        assert delta.flow_hits == 1


class TestRunReportColumns:
    def test_summary_carries_perf_columns(self):
        report = RunReport()
        report.add(ArtifactTiming(
            part="a", name="A-test", wall_s=0.1, cpu_s=0.1,
            perf=PerfCounters(events_executed=123, flow_lookups=7)))
        rendered = report.render()
        assert "events" in rendered and "123" in rendered
        assert "lookups" in rendered and "7 table lookups" in rendered
        assert report.total_perf.flow_lookups == 7

"""Streaming (``keep_timings=False``) mode of the load generator.

The scale-path contract: identical request schedule and identical
summary statistics to list mode (quantiles within the histogram's bin
error), but without retaining a single per-request object.
"""

import pytest

from repro.experiments import build_testbed
from repro.metrics.stats import StreamingStats
from repro.workloads.clients import RequestTiming
from repro.workloads.loadgen import ClosedLoopGenerator, LoadResult

BIN_REL_ERROR = 10 ** (1 / StreamingStats.BINS_PER_DECADE) - 1


def _rig(seed=12):
    tb = build_testbed(seed=seed, n_clients=4, cluster_types=("docker",),
                       memory_idle_timeout_s=3600.0)
    svc = tb.register_catalog_service("asm")
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], svc)
    tb.run(until=tb.sim.now + 30.0)
    assert warm.done
    return tb, svc


class TestClosedLoopStreaming:
    def test_streaming_counts_match_list_mode(self):
        tb_list, svc_list = _rig(seed=21)
        exact = ClosedLoopGenerator(tb_list, svc_list, users=3,
                                    think_time_s=0.2,
                                    keep_timings=True).start(duration_s=4.0)
        tb_list.run(until=tb_list.sim.now + 20.0)

        tb_stream, svc_stream = _rig(seed=21)
        stream = ClosedLoopGenerator(tb_stream, svc_stream, users=3,
                                     think_time_s=0.2,
                                     keep_timings=False).start(duration_s=4.0)
        tb_stream.run(until=tb_stream.sim.now + 20.0)

        assert stream.timings == []
        assert stream.issued == exact.issued
        assert stream.ok_count == len(exact.ok)
        assert stream.summary().mean == pytest.approx(
            exact.summary().mean, rel=1e-9)

    def test_streaming_matches_list_mode(self):
        tb_list, svc_list = _rig()
        exact = ClosedLoopGenerator(tb_list, svc_list, users=2,
                                    think_time_s=0.1,
                                    keep_timings=True).start(duration_s=3.0)
        tb_list.run(until=tb_list.sim.now + 10.0)

        tb_stream, svc_stream = _rig()
        stream = ClosedLoopGenerator(tb_stream, svc_stream, users=2,
                                     think_time_s=0.1,
                                     keep_timings=False).start(duration_s=3.0)
        tb_stream.run(until=tb_stream.sim.now + 10.0)

        assert stream.timings == []
        assert stream.issued == exact.issued > 0
        assert stream.completed_count == len(exact.completed)
        assert stream.ok_count == len(exact.ok)
        assert stream.failed == exact.failed == 0

        want, got = exact.summary(), stream.summary()
        assert got.count == want.count
        assert got.mean == pytest.approx(want.mean, rel=1e-9)
        assert got.std == pytest.approx(want.std, rel=1e-6, abs=1e-12)
        assert got.minimum == want.minimum
        assert got.maximum == want.maximum
        assert got.median == pytest.approx(want.median, rel=3 * BIN_REL_ERROR)

    def test_streaming_rejects_exact_accessors(self):
        tb, svc = _rig()
        result = ClosedLoopGenerator(tb, svc, users=2, think_time_s=0.2,
                                     keep_timings=False).start(duration_s=1.0)
        tb.run(until=tb.sim.now + 10.0)
        with pytest.raises(ValueError, match="keep_timings=False"):
            result.totals()


class TestRecordSemantics:
    def _timing(self, ok):
        return RequestTiming(client="c", t_start=0.0,
                             time_connect=0.001, time_total=0.002,
                             status=200 if ok else 0,
                             error=None if ok else "boom")

    def test_failed_counts_agree_across_modes(self):
        """A recorded error timing is a failure in both modes; ``None``
        (process died before producing a timing) counts in neither."""
        exact = LoadResult(keep_timings=True)
        stream = LoadResult(keep_timings=False, stream=StreamingStats())
        for result in (exact, stream):
            result.record(self._timing(ok=True))
            result.record(self._timing(ok=False))
            result.record(None)
        assert exact.failed == stream.failed == 1
        assert len(exact.ok) == stream.ok_count == 1

    def test_streaming_aggregates_only_ok_latencies(self):
        stream = LoadResult(keep_timings=False, stream=StreamingStats())
        stream.record(self._timing(ok=True))
        stream.record(self._timing(ok=False))
        assert stream.stream.count == 1

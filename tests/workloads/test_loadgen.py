"""Tests for the closed-loop load generator."""

import gc

import pytest

from repro.experiments import build_testbed
from repro.simcore.process import Process
from repro.workloads.loadgen import ClosedLoopGenerator


def _live_processes():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Process))


@pytest.fixture
def rig():
    tb = build_testbed(seed=12, n_clients=4, cluster_types=("docker",),
                       memory_idle_timeout_s=3600.0)
    svc = tb.register_catalog_service("asm")
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], svc)
    tb.run(until=tb.sim.now + 30.0)
    assert warm.done
    return tb, svc


class TestClosedLoop:
    def test_users_self_pace(self, rig):
        tb, svc = rig
        generator = ClosedLoopGenerator(tb, svc, users=3, think_time_s=1.0)
        result = generator.start(duration_s=5.0)
        tb.run(until=tb.sim.now + 10.0)
        # each user completes ~5 requests in 5 s with 1 s think time
        assert 9 <= result.issued <= 18
        assert result.failed == 0

    def test_more_users_more_throughput(self, rig):
        tb, svc = rig
        few = ClosedLoopGenerator(tb, svc, users=1, think_time_s=0.5)
        result_few = few.start(duration_s=5.0)
        tb.run(until=tb.sim.now + 10.0)
        many = ClosedLoopGenerator(tb, svc, users=4, think_time_s=0.5)
        result_many = many.start(duration_s=5.0)
        tb.run(until=tb.sim.now + 10.0)
        assert result_many.issued > 2 * result_few.issued

    def test_zero_users_rejected(self, rig):
        tb, svc = rig
        with pytest.raises(ValueError):
            ClosedLoopGenerator(tb, svc, users=0)

    def test_totals_helper(self, rig):
        tb, svc = rig
        generator = ClosedLoopGenerator(tb, svc, users=2, think_time_s=0.5)
        result = generator.start(duration_s=2.0)
        tb.run(until=tb.sim.now + 10.0)
        totals = result.totals()
        assert len(totals) == result.issued > 0
        assert all(t > 0 for t in totals)

    def test_finished_requests_leave_no_process_behind(self, rig):
        """The result keeps every timing; nothing keeps the request
        processes that produced them, though the generator is alive."""
        tb, svc = rig
        before = _live_processes()
        generator = ClosedLoopGenerator(tb, svc, users=4, think_time_s=0.05,
                                        keep_timings=True)
        result = generator.start(duration_s=4.0)
        tb.run(until=tb.sim.now + 10.0)
        assert result.issued > 100
        assert len(result.timings) == len(result.ok) == result.issued
        assert _live_processes() == before
        assert generator.result is result

"""Scenario-level chaos tests: fault windows through full testbed runs.

Three claims are kept executable here:

1. The data plane survives control-plane outages — established flows keep
   forwarding while the channel (or the whole controller) is down, and
   recovery resyncs leave no stale redirections behind.
2. Fault windows compose — back-to-back and *overlapping* windows on the
   same target produce one contiguous outage, not an early revert.
3. All of the chaos machinery is strictly opt-in — runs with no faults
   configured are bit-identical (full kernel trace) with or without the
   scaffolding in place, and the R3/R4 cells themselves are functions of
   their seed alone.
"""

import pytest

from repro.experiments.robustness import r3_crash_cell, r4_chaos_cell
from repro.experiments.topologies import build_testbed
from repro.simcore.faults import FaultSchedule, channel_outage, controller_outage, link_flap
from repro.simcore.trace import TraceLog


def make_testbed(seed=21, trace=None):
    tb = build_testbed(seed=seed, n_clients=4, cluster_types=("docker",),
                       use_flow_memory=True, switch_idle_timeout_s=30.0,
                       trace=trace)
    svc = tb.register_catalog_service("nginx", with_cloud_origin=True)
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], svc)
    tb.run(until=tb.sim.now + 60.0)
    assert warm.result is not None
    return tb, svc


def fetch_ok(tb, svc, index, settle_s=1.0):
    proc = tb.client(index).fetch(svc.service_id.addr, svc.service_id.port)
    tb.run(until=tb.sim.now + settle_s)
    assert proc.result is not None and proc.result.error is None
    return proc.result


class TestChannelOutageScenario:
    def test_established_flows_forward_during_outage(self):
        tb, svc = make_testbed()
        tb.manager.enable_heartbeat(interval_s=0.5, miss_limit=3)
        tb.switch.enable_liveness(interval_s=0.5, miss_limit=3)
        channel = tb.manager.datapaths[tb.switch.dpid].channel
        fetch_ok(tb, svc, 0)  # install the redirection flows
        start = tb.sim.now
        FaultSchedule([channel_outage(channel, at=start + 0.5,
                                      duration_s=4.0)]).install(tb.sim)
        tb.run(until=start + 1.0)
        assert not channel.connected
        # Data plane unaffected: the established client re-fetches straight
        # through its installed flows, no controller involved.
        fetch_ok(tb, svc, 0)
        # Both sides noticed the outage...
        tb.run(until=start + 4.0)
        assert not tb.manager.datapaths[tb.switch.dpid].alive
        assert not tb.switch.controller_alive
        # ...and both recover after the window; new clients work again.
        tb.run(until=start + 7.0)
        assert channel.connected
        assert tb.manager.datapaths[tb.switch.dpid].alive
        assert tb.switch.controller_alive
        fetch_ok(tb, svc, 1)
        assert tb.controller.audit_stale_service_flows() == 0

    def test_overlapping_channel_windows_are_one_outage(self):
        tb, svc = make_testbed()
        channel = tb.manager.datapaths[tb.switch.dpid].channel
        fetch_ok(tb, svc, 0)
        start = tb.sim.now
        FaultSchedule([
            channel_outage(channel, at=start + 1.0, duration_s=3.0),
            channel_outage(channel, at=start + 2.0, duration_s=1.0),
        ]).install(tb.sim)
        # The inner window ends at +3.0 but the outer holds until +4.0.
        tb.run(until=start + 3.5)
        assert not channel.connected
        tb.run(until=start + 4.5)
        assert channel.connected
        assert channel.outages == 1  # one contiguous outage, not two
        fetch_ok(tb, svc, 1)

    def test_back_to_back_channel_windows_count_separately(self):
        tb, svc = make_testbed()
        channel = tb.manager.datapaths[tb.switch.dpid].channel
        start = tb.sim.now
        FaultSchedule([
            channel_outage(channel, at=start + 1.0, duration_s=1.0),
            channel_outage(channel, at=start + 4.0, duration_s=1.0),
        ]).install(tb.sim)
        tb.run(until=start + 8.0)
        assert channel.connected
        assert channel.outages == 2
        fetch_ok(tb, svc, 0)


class TestLinkFlapScenario:
    def test_traffic_resumes_after_link_flaps(self):
        tb, svc = make_testbed()
        # The access link of client 0 (testbed wiring: one link per client,
        # in client order, before anything else is attached).
        host = tb.clients[0]
        links = [link for link in tb.net.links
                 if host in (link.a, link.b)]
        assert len(links) == 1
        start = tb.sim.now
        FaultSchedule([
            link_flap(links[0], at=start + 1.0, duration_s=0.3),
            link_flap(links[0], at=start + 1.2, duration_s=0.3),  # overlaps
            link_flap(links[0], at=start + 2.0, duration_s=0.2),
        ]).install(tb.sim)
        tb.run(until=start + 4.0)
        assert links[0].up
        # After the flaps both the flapped client and its neighbours work.
        fetch_ok(tb, svc, 0)
        fetch_ok(tb, svc, 1)
        assert tb.controller.audit_stale_service_flows() == 0

    def test_mixed_schedule_with_controller_outage_settles_clean(self):
        tb, svc = make_testbed()
        tb.manager.enable_heartbeat(interval_s=0.5, miss_limit=3)
        tb.switch.enable_liveness(interval_s=0.5, miss_limit=3)
        channel = tb.manager.datapaths[tb.switch.dpid].channel
        fetch_ok(tb, svc, 0)
        start = tb.sim.now
        FaultSchedule([
            controller_outage(tb.manager, at=start + 0.5, duration_s=2.0),
            channel_outage(channel, at=start + 1.0, duration_s=2.5),
        ]).install(tb.sim)
        tb.run(until=start + 10.0)
        assert tb.manager.alive
        assert channel.connected
        assert tb.manager.crashes == 1
        fetch_ok(tb, svc, 2)
        assert tb.controller.audit_stale_service_flows() == 0
        assert tb.controller.stats["flows_gcd"] == 0


def _traced_run(seed, with_empty_schedule=False, with_liveness=True, cold=False):
    """``cold``: no warm instance, the default switch idle timeout and 30 s
    of settling, so the trace also covers a cold deployment and the flows'
    idle expiry."""
    trace = TraceLog(enabled=True)
    if cold:
        tb = build_testbed(seed=seed, n_clients=4, cluster_types=("docker",), trace=trace)
        svc = tb.register_catalog_service("nginx", with_cloud_origin=True)
    else:
        tb, svc = make_testbed(seed=seed, trace=trace)
    if with_empty_schedule:
        FaultSchedule().install(tb.sim)
    if with_liveness:
        tb.manager.enable_heartbeat(interval_s=0.5, miss_limit=3)
        tb.switch.enable_liveness(interval_s=0.5, miss_limit=3)
    for index in range(4):
        tb.client(index).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 0.5)
    tb.run(until=tb.sim.now + (30.0 if cold else 10.0))
    channel = tb.manager.datapaths[tb.switch.dpid].channel
    return trace.records, channel.stats()


class TestFaultsDisabledByteIdentity:
    @pytest.mark.parametrize("seed, cold", [(33, False), (77, True)])
    def test_same_seed_runs_are_identical(self, seed, cold):
        # With heartbeats armed but zero faults configured, the entire
        # kernel trace (and every channel counter) is a pure function of
        # the seed.
        assert _traced_run(seed, cold=cold) == _traced_run(seed, cold=cold)

    def test_empty_fault_schedule_is_invisible(self):
        # Installing an empty FaultSchedule must not shift a single event.
        assert _traced_run(33) == _traced_run(33, with_empty_schedule=True)

    def test_liveness_machinery_is_opt_in(self):
        # With liveness NOT armed the run matches itself and the channel
        # carries no probe traffic; arming it adds echo messages but (in a
        # healthy run) never perturbs the kernel trace.
        base_records, base_chan = _traced_run(33, with_liveness=False)
        again_records, again_chan = _traced_run(33, with_liveness=False)
        assert base_records == again_records and base_chan == again_chan
        armed_records, armed_chan = _traced_run(33, with_liveness=True)
        assert armed_records == base_records
        assert armed_chan["messages_down"] > base_chan["messages_down"]
        assert armed_chan["drops_up"] == armed_chan["drops_down"] == 0


class TestChaosCellDeterminism:
    # Each cell, at a small size and at a larger one with more crashes,
    # clients and requests in flight, returns the same row twice, with no
    # client left blackholed and no flow serving a dead instance after the
    # post-restart resync.
    @pytest.mark.parametrize("crashes, n_clients, window, seed",
                             [(1, 48, 8, 5), (2, 96, 12, 101)])
    def test_r3_cell_is_a_function_of_its_seed(self, crashes, n_clients, window, seed):
        first = r3_crash_cell(crashes=crashes, n_clients=n_clients, window=window, seed=seed)
        second = r3_crash_cell(crashes=crashes, n_clients=n_clients, window=window, seed=seed)
        assert first == second
        assert first["crashes"] == crashes
        assert first["blackholed"] == 0
        assert first["stale_flows"] == 0

    @pytest.mark.parametrize("seed, n_clients, window", [(13, 48, 8), (211, 96, 12)])
    def test_r4_cell_is_a_function_of_its_seed(self, seed, n_clients, window):
        first = r4_chaos_cell(seed=seed, n_clients=n_clients, window=window)
        second = r4_chaos_cell(seed=seed, n_clients=n_clients, window=window)
        assert first == second
        assert first["blackholed"] == 0
        assert first["stale_flows"] == 0

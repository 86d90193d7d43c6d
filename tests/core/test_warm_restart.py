"""Warm-restart reconciliation: the controller crashes with amnesia, then
rebuilds FlowMemory and load bookkeeping from switch flow-stats snapshots.

The headline test is differential: a testbed that crashes and resyncs in a
quiet period must end up indistinguishable (FlowMemory contents, switch
flow tables modulo cookie epochs) from a twin that never crashed.
"""

import repro.core.controller as controller_mod
from repro.core.cookies import KIND_SERVICE, cookie_epoch, cookie_kind, is_controller_cookie
from repro.experiments.topologies import build_testbed


def make_testbed(seed=7, **overrides):
    kwargs = dict(seed=seed, n_clients=6, cluster_types=("docker",),
                  use_flow_memory=True, switch_idle_timeout_s=60.0,
                  memory_idle_timeout_s=240.0)
    kwargs.update(overrides)
    tb = build_testbed(**kwargs)
    svc = tb.register_catalog_service("nginx", with_cloud_origin=True)
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], svc)
    tb.run(until=tb.sim.now + 30.0)
    assert warm.result is not None
    return tb, svc


def fetch_clients(tb, svc, indices):
    procs = [tb.client(i).fetch(svc.service_id.addr, svc.service_id.port)
             for i in indices]
    tb.run(until=tb.sim.now + 2.0)
    for proc in procs:
        assert proc.result is not None and proc.result.error is None
    return procs


def memory_snapshot(tb):
    return {key: (flow.cluster.name, flow.endpoint)
            for key, flow in tb.memory._flows.items()}


def table_snapshot(tb):
    """Flow-table contents modulo cookies. Full counters are compared for
    service (redirection) flows — adoption must not reinstall them — while
    infrastructure flows (table-miss, plain routes) are compared on their
    static shape only: the restarted controller re-ADDs its table-miss,
    which legitimately resets that entry's counters."""
    rows = []
    for stat in tb.switch.table.stats():
        service = (is_controller_cookie(stat["cookie"])
                   and cookie_kind(stat["cookie"]) == KIND_SERVICE)
        row = {k: v for k, v in stat.items() if k != "cookie"}
        if not service:
            for volatile in ("packet_count", "byte_count", "duration"):
                row.pop(volatile, None)
        row["match"] = str(row["match"])
        row["actions"] = str(row.get("actions"))
        rows.append(tuple(sorted(row.items())))
    return sorted(rows)


class TestWarmRestartDifferential:
    def test_resynced_controller_matches_never_crashed_twin(self):
        crashed, svc_a = make_testbed()
        control, svc_b = make_testbed()
        assert svc_a.service_id == svc_b.service_id

        # Phase 1 on both: same clients, same sim times.
        fetch_clients(crashed, svc_a, [0, 1])
        fetch_clients(control, svc_b, [0, 1])

        # Quiet-period crash + warm restart in the crashed testbed only;
        # the twin just idles over the same two seconds.
        crashed.manager.crash()
        crashed.run(until=crashed.sim.now + 1.0)
        assert memory_snapshot(crashed) == {}  # amnesia is real
        crashed.manager.restart()
        crashed.run(until=crashed.sim.now + 1.0)
        control.run(until=control.sim.now + 2.0)

        assert crashed.controller.stats["flows_reconciled"] > 0
        assert crashed.controller.stats["flows_gcd"] == 0
        assert crashed.controller.audit_stale_service_flows() == 0

        # Phase 2 on both: one repeat client, one fresh client.
        fetch_clients(crashed, svc_a, [0, 2])
        fetch_clients(control, svc_b, [0, 2])

        # FlowMemory converged to the same decisions...
        assert memory_snapshot(crashed) == memory_snapshot(control)
        # ...and the switch tables are identical modulo cookie epochs.
        assert table_snapshot(crashed) == table_snapshot(control)
        # Load bookkeeping rebuilt, not double counted.
        assert crashed.dispatcher.load == control.dispatcher.load

    def test_adopted_flows_keep_old_epoch_and_new_flows_get_new_epoch(self):
        tb, svc = make_testbed()
        fetch_clients(tb, svc, [0])
        tb.manager.crash()
        tb.run(until=tb.sim.now + 0.5)
        tb.manager.restart()
        tb.run(until=tb.sim.now + 1.0)
        fetch_clients(tb, svc, [3])
        epochs = {cookie_epoch(stat["cookie"])
                  for stat in tb.switch.table.stats()
                  if is_controller_cookie(stat["cookie"])
                  and cookie_kind(stat["cookie"]) == KIND_SERVICE}
        assert epochs == {1, 2}


class TestReconcileGC:
    def test_flows_to_dead_instances_are_deleted_on_resync(self):
        tb, svc = make_testbed()
        fetch_clients(tb, svc, [0, 1])
        service_flows = [stat for stat in tb.switch.table.stats()
                         if is_controller_cookie(stat["cookie"])
                         and cookie_kind(stat["cookie"]) == KIND_SERVICE]
        assert service_flows
        tb.manager.crash()
        tb.run(until=tb.sim.now + 0.5)
        # The only edge cluster dies while the controller is down: every
        # redirection flow now points at a dead instance.
        tb.clusters["docker-egs"].fail()
        assert tb.controller.audit_stale_service_flows() == len(service_flows)
        tb.manager.restart()
        tb.run(until=tb.sim.now + 1.0)
        assert tb.controller.stats["flows_gcd"] == len(service_flows)
        assert tb.controller.stats["flows_reconciled"] == 0
        assert tb.controller.audit_stale_service_flows() == 0
        assert not any(is_controller_cookie(stat["cookie"])
                       and cookie_kind(stat["cookie"]) == KIND_SERVICE
                       for stat in tb.switch.table.stats())
        assert memory_snapshot(tb) == {}

    def test_gc_delete_is_cookie_filtered(self):
        # A same-match flow installed by the *new* epoch must never be
        # collateral damage of a stale-cookie strict delete (docs/faults.md).
        tb, svc = make_testbed()
        fetch_clients(tb, svc, [0])
        victim = [stat for stat in tb.switch.table.stats()
                  if is_controller_cookie(stat["cookie"])][0]
        table = tb.switch.table
        before = len(table.stats())
        # Strict delete with a different cookie: must not match.
        removed = table.delete(victim["match"], strict=True,
                               priority=victim["priority"],
                               cookie=victim["cookie"] + 1)
        assert removed == 0 and len(table.stats()) == before
        removed = table.delete(victim["match"], strict=True,
                               priority=victim["priority"],
                               cookie=victim["cookie"])
        assert removed == 1 and len(table.stats()) == before - 1


class TestResyncBuffering:
    def test_packet_ins_during_resync_are_buffered_and_replayed(self):
        # A slow control channel stretches the resync window so a fresh
        # client's first packets land mid-reconciliation.
        tb, svc = make_testbed(control_latency_s=0.05)
        fetch_clients(tb, svc, [0])
        tb.manager.crash()
        tb.run(until=tb.sim.now + 0.5)
        tb.manager.restart()
        proc = tb.client(4).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 5.0)
        assert tb.controller.stats["packet_ins_buffered_resync"] > 0
        assert tb.controller.stats["packet_ins_dropped_resync"] == 0
        assert proc.result is not None and proc.result.error is None

    def test_buffer_overflow_expires_oldest(self, monkeypatch):
        monkeypatch.setattr(controller_mod, "RESYNC_BUFFER_CAPACITY", 1)
        tb, svc = make_testbed(control_latency_s=0.05)
        fetch_clients(tb, svc, [0])
        tb.manager.crash()
        tb.run(until=tb.sim.now + 0.5)
        tb.manager.restart()
        for index in (3, 4, 5):
            tb.client(index).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 5.0)
        assert tb.controller.stats["packet_ins_dropped_resync"] > 0
        # The bound held: never more than capacity in flight.
        assert tb.controller.stats["packet_ins_buffered_resync"] >= 1


class TestReclaimAfterChannelOutage:
    def test_flows_expired_during_outage_are_reclaimed_on_revival(self):
        tb, svc = make_testbed(switch_idle_timeout_s=1.0)
        tb.manager.enable_heartbeat(interval_s=0.5, miss_limit=3)
        # Short settle: the flows must still be resident when the channel
        # dies (the idle timeout is only 1 s here).
        procs = [tb.client(i).fetch(svc.service_id.addr, svc.service_id.port)
                 for i in (0, 1)]
        tb.run(until=tb.sim.now + 0.5)
        assert all(p.result is not None and p.result.error is None
                   for p in procs)
        assert tb.dispatcher.load["docker-egs"] > 0
        assert tb.controller._redirects
        channel = tb.manager.datapaths[tb.switch.dpid].channel
        channel.disconnect()
        # Long enough for every flow to idle out; the FlowRemoved
        # notifications are dropped on the dead channel.
        tb.run(until=tb.sim.now + 6.0)
        assert channel.drops_up > 0
        assert not tb.manager.datapaths[tb.switch.dpid].alive
        channel.reconnect()
        tb.run(until=tb.sim.now + 3.0)
        # Revival resync saw an empty table: bookkeeping reclaimed.
        assert tb.manager.datapaths[tb.switch.dpid].alive
        assert tb.controller._redirects == {}
        assert tb.dispatcher.load["docker-egs"] == 0
        assert tb.controller.audit_stale_service_flows() == 0

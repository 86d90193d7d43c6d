"""Regression: handover must not corrupt per-cluster load accounting.

The invariant: ``dispatcher.load[cluster] == number of live service-flow
cookies dispatched to that cluster``.  The historical bug: a FlowMemory-hit
reinstall (switch flow idled out, memory entry alive) registered its cookie
*without* incrementing the load, while every cookie removal decremented —
so each re-miss/handover cycle stole one count from the cluster and the
scheduler's load signal drifted toward zero.  These tests walk that exact
cycle and require the counter to track live flows at every step, returning
to baseline (zero) once everything quiesces.
"""

from repro.experiments import build_testbed

CLUSTER = "docker-egs"


def make_tb():
    # Short switch idle + long memory idle: conversations leave FlowMemory
    # populated while the switch flows expire — the re-miss reinstall path.
    return build_testbed(seed=21, n_clients=2, cluster_types=("docker",),
                         switch_idle_timeout_s=0.5,
                         memory_idle_timeout_s=3600.0)


def fetch_both(tb, svc):
    requests = [tb.client(i).fetch(svc.service_id.addr, svc.service_id.port)
                for i in range(2)]
    tb.run(until=tb.sim.now + 30.0)
    assert all(r.done and r.result.ok for r in requests), requests
    return requests


class TestHandoverLoadAccounting:
    def test_load_tracks_live_flows_through_remiss_and_handover(self):
        tb = make_tb()
        svc = tb.register_catalog_service("nginx")

        fetch_both(tb, svc)  # cold path: both flows installed
        tb.run(until=tb.sim.now + 5.0)  # idle timers fire, flows removed
        assert tb.dispatcher.load.get(CLUSTER, 0) == 0
        assert len(tb.memory) == 2  # memory outlives the switch flows

        # Re-miss reinstall: packet-in -> FlowMemory hit -> reinstall. The
        # buggy accounting skipped the increment here.
        requests = [tb.client(i).fetch(svc.service_id.addr,
                                       svc.service_id.port) for i in range(2)]
        tb.run(until=tb.sim.now + 0.3)
        assert all(r.done and r.result.ok for r in requests), requests
        assert tb.dispatcher.load.get(CLUSTER, 0) == 2

        # Handover client 0: its flow is released synchronously; client 1's
        # flow (still within its idle window) must keep its count.
        invalidated = tb.move_client(0, "roamed")
        assert invalidated == 1
        assert tb.dispatcher.load.get(CLUSTER, 0) == 1

        # The switch's FlowRemoved for the deleted flow must not decrement
        # a second time (the handover already popped the cookie ledger).
        tb.run(until=tb.sim.now + 0.2)
        assert tb.dispatcher.load.get(CLUSTER, 0) == 1

        # Baseline: once client 1's flow idles out, the cluster is empty.
        tb.run()
        assert tb.dispatcher.load.get(CLUSTER, 0) == 0

    def test_repeated_cycles_do_not_drift(self):
        """Three full fetch/idle/refetch/handover rounds: the buggy
        accounting lost one count per round (load drifted negative, clamped
        to zero and starving the load-aware scheduler of signal)."""
        tb = make_tb()
        svc = tb.register_catalog_service("nginx")
        for _ in range(3):
            fetch_both(tb, svc)
            tb.run(until=tb.sim.now + 5.0)
            requests = [tb.client(i).fetch(svc.service_id.addr,
                                           svc.service_id.port)
                        for i in range(2)]
            tb.run(until=tb.sim.now + 0.3)
            assert all(r.done and r.result.ok for r in requests)
            assert tb.dispatcher.load.get(CLUSTER, 0) == 2
            tb.move_client(0, "roamed")
            assert tb.dispatcher.load.get(CLUSTER, 0) == 1
            tb.run(until=tb.sim.now + 5.0)
            assert tb.dispatcher.load.get(CLUSTER, 0) == 0
            tb.move_client(0, "default")  # move back for the next round

    def test_handover_release_is_scoped_to_the_client(self):
        tb = make_tb()
        svc = tb.register_catalog_service("nginx")
        fetch_both(tb, svc)
        tb.run(until=tb.sim.now + 5.0)  # first flows idle out
        requests = [tb.client(i).fetch(svc.service_id.addr,
                                       svc.service_id.port) for i in range(2)]
        tb.run(until=tb.sim.now + 0.3)  # reinstalled, still inside idle window
        assert all(r.done and r.result.ok for r in requests)
        forgotten = tb.controller.withdraw(client=tb.clients[0].ip)
        assert forgotten == 1
        assert tb.dispatcher.load.get(CLUSTER, 0) == 1
        assert [record.client for record in tb.controller._redirects.values()] \
            == [tb.clients[1].ip]
        # Withdrawing again is a no-op (ledger already popped).
        assert tb.controller.withdraw(client=tb.clients[0].ip) == 0
        assert tb.dispatcher.load.get(CLUSTER, 0) == 1
        # The switch's FlowRemoved for the deleted flows finds nothing left
        # to release.
        tb.run(until=tb.sim.now + 0.2)
        assert tb.dispatcher.load.get(CLUSTER, 0) == 1

    def test_set_client_zone_updates_map_and_location(self):
        tb = make_tb()
        client = tb.clients[0].ip
        tb.dispatcher.set_client_zone(client, "roamed")
        assert tb.dispatcher.client_zone(client) == "roamed"
        assert tb.dispatcher.zones.zone_of(client) == "roamed"

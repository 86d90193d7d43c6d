"""The packet-in service decision is the live registry lookup.

The controller keeps no cache between the registry and its slow path:
``service_decision`` (the probe of the call the data path makes) must equal
``registry.lookup_prefix`` at every point of a run — across a relevant
deregister, unrelated churn, and a crash with warm restart.
"""

from repro.experiments import build_testbed


def make_tb(seed=3, **kwargs):
    return build_testbed(seed=seed, n_clients=4, cluster_types=("docker",),
                         **kwargs)


def decision_and_lookup(tb, sid):
    return (tb.controller.service_decision(sid.addr, sid.port, sid.protocol),
            tb.controller.registry.lookup_prefix(sid.addr, sid.port,
                                                 sid.protocol))


class TestDecisionUnderChurn:
    def test_unrelated_churn_keeps_the_live_answer(self):
        tb = make_tb()
        svc = tb.register_catalog_service("nginx")
        sid = svc.service_id
        tb.client(0).fetch(sid.addr, sid.port)
        tb.run()
        # churn: an unrelated service registered, then deregistered
        other = tb.register_catalog_service("asm")
        assert decision_and_lookup(tb, sid) == (svc, svc)
        assert decision_and_lookup(tb, other.service_id) == (other, other)
        tb.controller.registry.deregister(other.service_id)
        assert decision_and_lookup(tb, sid) == (svc, svc)
        assert decision_and_lookup(tb, other.service_id) == (None, None)
        dispatches = tb.controller.stats["service_dispatches"]
        request = tb.client(1).fetch(sid.addr, sid.port)
        tb.run()
        assert request.result.ok
        assert tb.controller.stats["service_dispatches"] == dispatches + 1

    def test_relevant_deregister_drops_the_service(self):
        tb = make_tb()
        svc = tb.register_catalog_service("nginx")
        sid = svc.service_id
        tb.client(0).fetch(sid.addr, sid.port)
        tb.run()
        assert decision_and_lookup(tb, sid) == (svc, svc)
        tb.controller.registry.deregister(sid)
        assert decision_and_lookup(tb, sid) == (None, None)
        again = tb.controller.registry.register_service(svc)
        assert decision_and_lookup(tb, sid) == (again, again)

    def test_crash_keeps_the_live_answer(self):
        tb = make_tb()
        svc = tb.register_catalog_service("nginx")
        sid = svc.service_id
        tb.client(0).fetch(sid.addr, sid.port)
        tb.run()
        ctrl = tb.controller
        ctrl.on_crash()
        # the registry is configuration, not volatile state: it survives
        assert decision_and_lookup(tb, sid) == (svc, svc)
        ctrl.registry.deregister(sid)
        assert decision_and_lookup(tb, sid) == (None, None)

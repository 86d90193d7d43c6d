"""Regression: every teardown takes a whole redirection down, and only it.

``TransparentEdgeController.withdraw`` is the one teardown behind
dead-instance eviction, handover, deregister and drain: it deletes each
selected redirection by its cookie (every hop, both directions) and
releases its load at once. Each case below is a leak the hand-built
per-module teardowns had: a downstream flow left behind by deregister,
another cluster's flow deleted by drain, load a drained cluster never got
back, and a subnet service's flow that eviction's rebuilt match missed.

After every teardown three things hold: no installed service flow points
at a dead instance, each cluster's dispatcher load equals its ledger
records, and no flow of the withdrawn selection is left on any switch.
"""

import pytest

from repro.core.admin import EdgeAdmin
from repro.core.serviceid import ServiceID
from repro.experiments import build_testbed
from repro.experiments.topologies import add_docker_cluster
from repro.netsim.addresses import ip


def cookies_where(tb, **fields):
    """Ledger cookies whose record matches every given field (clusters
    compare by identity: ``EdgeCluster`` defines no ``__eq__``)."""
    return {cookie for cookie, record in tb.controller._redirects.items()
            if all(getattr(record, name) == value
                   for name, value in fields.items())}


def installed_cookies(tb):
    return {stat["cookie"]
            for datapath in tb.manager.datapaths.values()
            for stat in datapath.switch.table.stats()}


def assert_torn_down(tb, withdrawn):
    ctrl = tb.controller
    assert ctrl.audit_stale_service_flows() == 0
    for cluster in tb.clusters.values():
        records = sum(1 for record in ctrl._redirects.values()
                      if record.cluster is cluster)
        assert tb.dispatcher.load.get(cluster.name, 0) == records, cluster.name
    assert not withdrawn & installed_cookies(tb)
    assert not withdrawn & set(ctrl._redirects)


def fetch(tb, index, addr, port, window):
    request = tb.client(index).fetch(addr, port)
    tb.run(until=tb.sim.now + window)
    assert request.done and request.result.ok
    return request


def two_cluster_testbed():
    """Client 0 served by ``docker-egs``, client 1 (zoned far) by
    ``docker-far``, both redirections live."""
    tb = build_testbed(seed=8, n_clients=2, cluster_types=("docker",),
                       memory_idle_timeout_s=3600.0)
    far = add_docker_cluster(tb, "docker-far", zone="far", access_rtt_s=0.010)
    tb.dispatcher.set_client_zone(tb.clients[1].ip, "far")
    svc = tb.register_catalog_service("nginx")
    sid = svc.service_id
    requests = [tb.client(i).fetch(sid.addr, sid.port) for i in (0, 1)]
    tb.run(until=tb.sim.now + 8.0)
    assert all(r.done and r.result.ok for r in requests)
    near = tb.clusters["docker-egs"]
    assert tb.memory.peek(tb.clients[0].ip, sid).cluster is near
    assert tb.memory.peek(tb.clients[1].ip, sid).cluster is far
    return tb, svc, near, far


class TestWithdraw:
    def test_deregister_removes_every_flow_of_the_service(self):
        tb = build_testbed(seed=8, n_clients=2, cluster_types=("docker",),
                           memory_idle_timeout_s=3600.0)
        svc = tb.register_catalog_service("nginx")
        sid = svc.service_id
        fetch(tb, 0, sid.addr, sid.port, 8.0)
        fetch(tb, 1, sid.addr, sid.port, 1.0)
        withdrawn = cookies_where(tb, service_id=sid)
        assert len(withdrawn) == 2 and withdrawn <= installed_cookies(tb)
        with pytest.raises(ValueError):
            tb.controller.withdraw()  # no selector: would take down everything

        EdgeAdmin(tb.controller).deregister_service(sid, undeploy=False)
        tb.run(until=tb.sim.now + 0.5)
        assert len(tb.memory) == 0
        assert_torn_down(tb, withdrawn)

    def test_drain_keeps_other_clusters_flows(self):
        tb, svc, near, far = two_cluster_testbed()
        withdrawn = cookies_where(tb, cluster=near)
        kept = cookies_where(tb, cluster=far)
        assert len(withdrawn) == 1 and len(kept) == 1

        EdgeAdmin(tb.controller).drain_cluster("docker-egs")
        tb.run(until=tb.sim.now + 0.5)
        assert_torn_down(tb, withdrawn)
        # client 1's redirection to the far cluster is untouched
        assert kept <= installed_cookies(tb)
        assert kept == set(tb.controller._redirects)
        assert tb.memory.peek(tb.clients[1].ip, svc.service_id).cluster is far
        assert tb.dispatcher.load == {"docker-egs": 0, "docker-far": 1}

    def test_drain_then_undrain_gives_the_load_back(self):
        tb, _svc, near, _far = two_cluster_testbed()
        withdrawn = cookies_where(tb, cluster=near)
        admin = EdgeAdmin(tb.controller)
        admin.drain_cluster("docker-egs")
        tb.run(until=tb.sim.now + 60.0)  # quiesce: every flow idles out
        assert_torn_down(tb, withdrawn)
        assert admin.undrain_cluster("docker-egs")
        assert tb.controller._redirects == {}
        assert tb.dispatcher.load == {"docker-egs": 0, "docker-far": 0}

    def test_eviction_reaches_subnet_service_flows(self):
        # Switch flows idle out after 10 s, FlowMemory keeps the decision:
        # client 0 re-misses while client 1's flows are still installed.
        tb = build_testbed(seed=6, n_clients=2, cluster_types=("docker",),
                           memory_idle_timeout_s=3600.0,
                           switch_idle_timeout_s=10.0)
        sid = ServiceID(ip("10.100.0.0"), 80)
        svc = tb.registry.register(sid, image="nginx:1.23.2",
                                   container_port=80, prefix_len=24)
        addr = ip("10.100.0.7")  # inside the prefix, not the network address
        cluster = tb.clusters["docker-egs"]
        first = tb.client(0).fetch(addr, 80)
        tb.run(until=6.0)
        assert first.done and first.result.ok
        second = tb.client(1).fetch(addr, 80)
        tb.run(until=8.0)
        assert second.done and second.result.ok
        endpoint = cluster.endpoint(svc.spec)
        assert len(tb.memory.matching(endpoint=endpoint)) == 2

        remove = tb.engine.remove(cluster, svc)  # dies out-of-band
        tb.run(until=9.0)
        assert remove.done and not cluster.is_ready(svc.spec)
        tb.run(until=14.5)
        withdrawn = cookies_where(tb, endpoint=endpoint)
        client1 = cookies_where(tb, client=tb.clients[1].ip)
        assert client1 and client1 <= withdrawn & installed_cookies(tb)

        request = tb.client(0).fetch(addr, 80)
        tb.run(until=15.5)
        assert tb.controller.stats["instances_evicted"] == 1
        assert tb.memory.peek(tb.clients[1].ip, sid) is None
        assert_torn_down(tb, withdrawn)
        tb.run(until=40.0)
        assert request.done and request.result.ok

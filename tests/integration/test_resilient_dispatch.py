"""End-to-end resilience: deployment failures degrade to the cloud, the
per-cluster circuit breaker trips and recovers, and dead memorized
instances are evicted from FlowMemory *and* the switch."""

from repro.core.resilience import BreakerConfig, RetryPolicy
from repro.experiments import build_testbed


FAST_FAIL = RetryPolicy(max_attempts=2, base_backoff_s=0.1,
                        phase_deadline_s={})


class TestCloudFallback:
    def test_deploy_failure_releases_the_request_toward_the_cloud(self):
        tb = build_testbed(seed=3, n_clients=2, cluster_types=("docker",),
                           retry_policy=FAST_FAIL,
                           faults={"registry.pull": 1.0})
        svc = tb.register_catalog_service("nginx", with_cloud_origin=True)
        request = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 30.0)

        # answered — by the real cloud origin, not the broken edge
        assert request.done and request.result.ok
        assert tb.engine.failures == 1
        assert tb.dispatcher.deploy_failures == 1
        assert tb.controller.stats["dispatch_failures"] >= 1
        assert tb.controller.stats["cloud_routed"] >= 1
        # nothing buffered forever, nothing remembered about the failure
        assert not tb.controller._pending
        assert tb.memory.lookup(tb.clients[0].ip, svc.service_id) is None

    def test_coalesced_requests_are_all_released_on_failure(self):
        tb = build_testbed(seed=3, n_clients=2, cluster_types=("docker",),
                           retry_policy=FAST_FAIL,
                           faults={"registry.pull": 1.0})
        svc = tb.register_catalog_service("nginx", with_cloud_origin=True)
        # two concurrent connections from the same client: the second SYN
        # arrives while the first one's dispatch is still in flight and is
        # buffered onto the same pending list
        first = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        second = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 30.0)

        assert tb.controller.stats["pending_coalesced"] >= 1
        assert first.done and first.result.ok
        assert second.done and second.result.ok
        assert not tb.controller._pending


class TestBreakerEndToEnd:
    def test_breaker_opens_excludes_and_recovers(self):
        tb = build_testbed(seed=5, n_clients=6, cluster_types=("docker",),
                           retry_policy=RetryPolicy(max_attempts=1,
                                                    phase_deadline_s={}),
                           breaker_config=BreakerConfig(failure_threshold=2,
                                                        open_for_s=30.0))
        svc = tb.register_catalog_service("nginx", with_cloud_origin=True)
        # cloud-routed fallbacks install dst-only route flows; keep their
        # idle timeout below the request spacing so every request misses
        # the table and makes a fresh scheduling decision
        tb.controller.cfg.route_idle_timeout_s = 0.5
        cluster = tb.clusters["docker-egs"]
        breaker = tb.dispatcher.breaker_for(cluster)
        cluster.fail()

        # two consecutive failures (distinct clients, so each one
        # packet-ins and dispatches) trip the breaker
        for index in (0, 1):
            request = tb.client(index).fetch(svc.service_id.addr,
                                             svc.service_id.port)
            tb.run(until=tb.sim.now + 5.0)
            assert request.done and request.result.ok  # via the cloud
        assert breaker.state == "open"
        assert tb.dispatcher.breaker_opens == 1
        failures_when_opened = tb.engine.attempt_failures

        # while open the cluster is not even tried — straight to the cloud
        request = tb.client(2).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 5.0)
        assert request.done and request.result.ok
        assert tb.engine.attempt_failures == failures_when_opened

        # recovery: after open_for_s the next dispatch is the probation
        # probe; it deploys successfully and closes the breaker
        cluster.recover()
        tb.run(until=tb.sim.now + 30.0)
        request = tb.client(3).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 30.0)
        assert request.done and request.result.ok
        assert breaker.state == "closed"
        assert cluster.is_ready(svc.spec)  # served at the edge again

    def test_breaker_disabled_keeps_hammering_the_cluster(self):
        tb = build_testbed(seed=5, n_clients=6, cluster_types=("docker",),
                           use_breaker=False,
                           retry_policy=RetryPolicy(max_attempts=1,
                                                    phase_deadline_s={}))
        svc = tb.register_catalog_service("nginx", with_cloud_origin=True)
        tb.controller.cfg.route_idle_timeout_s = 0.5
        tb.clusters["docker-egs"].fail()
        for index in range(4):
            request = tb.client(index).fetch(svc.service_id.addr,
                                             svc.service_id.port)
            tb.run(until=tb.sim.now + 5.0)
            assert request.done and request.result.ok
        assert tb.dispatcher.breaker_opens == 0
        assert tb.engine.attempt_failures == 4  # every request tried it


class TestDeadInstanceEviction:
    def test_eviction_purges_memory_and_switch_flows(self):
        # switch flows idle out after 10s but FlowMemory keeps the decision
        # for an hour — the exact regime FlowMemory exists for (§V)
        tb = build_testbed(seed=6, n_clients=2, cluster_types=("docker",),
                           memory_idle_timeout_s=3600.0,
                           switch_idle_timeout_s=10.0)
        svc = tb.register_catalog_service("nginx")
        cluster = tb.clusters["docker-egs"]
        sid = svc.service_id
        client0, client1 = tb.clients[0].ip, tb.clients[1].ip
        # client 0 at t=0 (cold deploy), client 1 at t=6 (warm): client 0's
        # switch flows idle out ~4s before client 1's
        first = tb.client(0).fetch(sid.addr, sid.port)
        tb.run(until=6.0)
        assert first.done and first.result.ok
        second = tb.client(1).fetch(sid.addr, sid.port)
        tb.run(until=8.0)
        assert second.done and second.result.ok
        endpoint = cluster.endpoint(svc.spec)
        assert len(tb.memory.matching(endpoint=endpoint)) == 2

        # the instance dies out-of-band (no packet-in tells the controller)
        remove = tb.engine.remove(cluster, svc)
        tb.run(until=9.0)
        assert remove.done and not cluster.is_ready(svc.spec)

        # at t=14.5 client 0's flows have idled out (table miss) while
        # client 1's are still installed; the re-miss finds the memorized
        # endpoint dead, so the controller evicts EVERY client's memory
        # entry and switch flows, then re-dispatches (images cached)
        tb.run(until=14.5)
        stale = [e for e in tb.switch.table._entries
                 if e.match.exact_value("ipv4_src") == client1
                 or e.match.exact_value("ipv4_dst") == client1]
        assert stale  # client 1's flows still point at the dead endpoint
        request = tb.client(0).fetch(sid.addr, sid.port)
        tb.run(until=15.5)
        assert tb.controller.stats["instances_evicted"] == 1

        # client 1's stale state is gone even though it never re-missed and
        # its flows' own idle timeout (t≈16.1) has not elapsed yet
        assert tb.memory.lookup(client1, sid) is None
        for entry in tb.switch.table._entries:
            assert entry.match.exact_value("ipv4_src") != client1
            assert entry.match.exact_value("ipv4_dst") != client1

        # client 0 was re-dispatched onto the fresh instance and remembered
        tb.run(until=40.0)
        assert request.done and request.result.ok
        assert tb.memory.lookup(client0, sid) is not None

"""Unit tests for the DeploymentEngine and the Dispatcher (fig. 4 / fig. 7)."""

import pytest

from repro.core.deployment import DeploymentEngine
from repro.core.dispatcher import Dispatcher
from repro.core.flowmemory import FlowMemory
from repro.core.registry import ServiceRegistry
from repro.core.scheduler import ProximityScheduler
from repro.core.serviceid import ServiceID
from repro.core.zones import ZoneMap
from repro.edge.cluster import DockerCluster
from repro.edge.containerd import Containerd
from repro.edge.docker import DockerEngine
from repro.edge.registry import Registry, RegistryHub, RegistryTiming
from repro.edge.services import all_catalog_images
from repro.netsim import Network
from repro.netsim.addresses import ip


SID = ServiceID(ip("198.51.100.1"), 80)


@pytest.fixture
def env():
    net = Network(seed=0)
    registry = Registry("hub", RegistryTiming(manifest_s=0.05, layer_rtt_s=0.005,
                                              bandwidth_bps=1e9))
    for image in all_catalog_images():
        registry.push(image)
    hub = RegistryHub(registry)
    hub.add("gcr.io", registry)
    zones = ZoneMap()
    zones.set_rtt("access", "near", 0.001)
    zones.set_rtt("access", "far", 0.010)
    clusters = []
    for zone in ("near", "far"):
        node = net.add_host(f"node-{zone}")
        runtime = Containerd(net.sim, node, hub)
        clusters.append(DockerCluster(net.sim, f"docker-{zone}",
                                      DockerEngine(net.sim, runtime), zone=zone))
    services = ServiceRegistry()
    service = services.register(SID, image="nginx:1.23.2", container_port=80)
    engine = DeploymentEngine(net.sim)
    memory = FlowMemory(net.sim, idle_timeout_s=60.0)
    dispatcher = Dispatcher(net.sim, clusters, ProximityScheduler(zones),
                            engine, memory, zones=zones)
    zones.assign_subnet(ip("10.0.0.0"), 8, "access")
    return net, clusters, service, engine, dispatcher, memory


class TestDeploymentEngine:
    def test_cold_run_executes_all_phases(self, env):
        net, clusters, service, engine, _, _ = env
        p = engine.ensure_available(clusters[0], service)
        net.run()
        endpoint = p.result
        assert clusters[0].port_open(endpoint)
        record = engine.records[0]
        assert record.cold_start
        assert set(record.phases) == {"pull", "create", "scale_up"}
        assert record.wait_s > 0
        assert record.total_s == pytest.approx(
            sum(record.phases.values()) + record.wait_s, rel=0.01)

    def test_warm_run_skips_everything(self, env):
        """A warm reuse returns the endpoint, spends no simulated time and
        leaves no record: it only counts in ``warm_reuses``."""
        net, clusters, service, engine, _, _ = env
        engine.ensure_available(clusters[0], service)
        net.run()
        records = list(engine.records)
        assert engine.warm_reuses == 0
        t0 = net.now
        p = engine.ensure_available(clusters[0], service)
        net.run()
        assert p.result == clusters[0].endpoint(service.spec)
        assert engine.records == records
        assert engine.warm_reuses == 1
        assert net.now == t0  # no simulated time spent

    def test_pull_skipped_when_cached(self, env):
        net, clusters, service, engine, _, _ = env
        cluster = clusters[0]
        cluster.pull(service.spec)
        net.run()
        engine.ensure_available(cluster, service)
        net.run()
        assert "pull" not in engine.records[-1].phases
        assert "create" in engine.records[-1].phases

    def test_create_skipped_when_created(self, env):
        net, clusters, service, engine, _, _ = env
        cluster = clusters[0]

        def pre():
            yield cluster.pull(service.spec)
            yield cluster.create(service.spec)

        net.sim.spawn(pre())
        net.run()
        engine.ensure_available(cluster, service)
        net.run()
        assert set(engine.records[-1].phases) == {"scale_up"}

    def test_concurrent_requests_coalesce(self, env):
        net, clusters, service, engine, _, _ = env
        p1 = engine.ensure_available(clusters[0], service)
        p2 = engine.ensure_available(clusters[0], service)
        assert p1 is p2
        net.run()
        assert engine.coalesced == 1
        assert len(engine.records) == 1

    def test_different_clusters_not_coalesced(self, env):
        net, clusters, service, engine, _, _ = env
        p1 = engine.ensure_available(clusters[0], service)
        p2 = engine.ensure_available(clusters[1], service)
        assert p1 is not p2
        net.run()
        assert len(engine.records) == 2

    def test_scale_down_then_ensure_again(self, env):
        net, clusters, service, engine, _, _ = env
        engine.ensure_available(clusters[0], service)
        net.run()
        engine.scale_down(clusters[0], service)
        net.run()
        assert not clusters[0].is_ready(service.spec)
        p = engine.ensure_available(clusters[0], service)
        net.run()
        assert clusters[0].port_open(p.result)
        # second cold start has no pull and no create phase
        assert set(engine.records[-1].phases) == {"scale_up"}

    def test_remove_with_image_deletion(self, env):
        net, clusters, service, engine, _, _ = env
        engine.ensure_available(clusters[0], service)
        net.run()
        engine.remove(clusters[0], service, delete_images=True)
        net.run()
        assert not clusters[0].is_created(service.spec)
        assert not clusters[0].has_images(service.spec)

    def test_records_filtering(self, env):
        """Every filter on real records: cold, warm (no record), scale_down,
        cold again, and a failed run seen only with ``include_failed``."""
        net, clusters, service, engine, _, _ = env
        engine.ensure_available(clusters[0], service)
        net.run()
        engine.ensure_available(clusters[0], service)  # warm: no record
        net.run()
        engine.scale_down(clusters[0], service)
        net.run()
        engine.ensure_available(clusters[0], service)  # cold again
        net.run()
        net.sim.faults.configure_many({"registry.pull": 1.0})
        failed = engine.ensure_available(clusters[1], service)
        net.run()
        assert failed.exception is not None
        assert engine.warm_reuses == 1

        first, second, broken = engine.records
        assert first.cold_start and second.cold_start
        assert first.succeeded and second.succeeded and not broken.succeeded
        assert set(second.phases) == {"scale_up"}
        assert broken.cluster == clusters[1].name
        assert broken.error is not None
        assert engine.records_for() == [first, second]
        assert engine.records_for(cluster_type="docker") == [first, second]
        assert engine.records_for(cold_only=True) == [first, second]
        assert engine.records_for(service=service.name) == [first, second]
        assert engine.records_for(service="no-such-service") == []
        assert engine.records_for(cluster_type="kubernetes") == []
        assert engine.records_for(include_failed=True) == [first, second, broken]
        assert engine.records_for(include_failed=True,
                                  service=service.name) == [first, second, broken]


class TestDispatcher:
    def test_dispatch_deploys_at_nearest(self, env):
        net, clusters, service, engine, dispatcher, memory = env
        p = dispatcher.dispatch(ip("10.0.0.1"), service)
        net.run()
        result = p.result
        assert result.cluster is clusters[0]  # near
        assert result.waited
        assert not result.toward_cloud
        assert clusters[0].port_open(result.endpoint)

    def test_dispatch_uses_ready_instance_without_waiting_flag(self, env):
        net, clusters, service, engine, dispatcher, memory = env
        engine.ensure_available(clusters[0], service)
        net.run()
        p = dispatcher.dispatch(ip("10.0.0.1"), service)
        net.run()
        assert p.result.waited is False

    def test_without_waiting_background_best(self, env):
        net, clusters, service, engine, dispatcher, memory = env
        engine.ensure_available(clusters[1], service)  # far instance ready
        net.run()
        service.max_initial_delay_s = 0.050
        p = dispatcher.dispatch(ip("10.0.0.1"), service)
        net.run()
        result = p.result
        assert result.cluster is clusters[1]
        assert result.background_best
        # The BEST deployment ran in the background at the near cluster.
        assert clusters[0].is_ready(service.spec)
        assert dispatcher.without_waiting == 1

    def test_client_location_tracking(self, env):
        net, clusters, service, engine, dispatcher, memory = env
        dispatcher.dispatch(ip("10.0.0.7"), service)
        net.run()
        assert dispatcher.client_zone(ip("10.0.0.7")) == "access"

    def test_load_bookkeeping(self, env):
        net, clusters, service, engine, dispatcher, memory = env
        dispatcher.note_flow_installed(clusters[0])
        dispatcher.note_flow_installed(clusters[0])
        dispatcher.note_flow_removed(clusters[0])
        assert dispatcher.load[clusters[0].name] == 1
        dispatcher.note_flow_removed(clusters[0])
        dispatcher.note_flow_removed(clusters[0])  # never below zero
        assert dispatcher.load[clusters[0].name] == 0

    def test_gather_instances_across_clusters(self, env):
        net, clusters, service, engine, dispatcher, memory = env
        engine.ensure_available(clusters[0], service)
        engine.ensure_available(clusters[1], service)
        net.run()
        instances = dispatcher.gather_instances(service)
        assert len(instances) == 2
        assert all(inst.ready for inst in instances)

    def test_cloud_fallback_counted(self, env):
        net, clusters, service, engine, dispatcher, memory = env
        dispatcher.clusters = []
        p = dispatcher.dispatch(ip("10.0.0.1"), service)
        net.run()
        assert p.result.toward_cloud
        assert dispatcher.cloud_fallbacks == 1

"""Unit tests for the edge hierarchy and the hierarchical scheduler."""

import pytest

from repro.core.hierarchy import EdgeHierarchy, HierarchicalScheduler
from repro.core.registry import ServiceRegistry
from repro.core.scheduler import ScheduleRequest
from repro.core.serviceid import ServiceID
from repro.core.zones import ZoneMap
from repro.edge.cluster import DockerCluster
from repro.edge.containerd import Containerd
from repro.edge.docker import DockerEngine
from repro.edge.registry import Registry, RegistryHub, RegistryTiming
from repro.edge.services import all_catalog_images
from repro.netsim import Network
from repro.netsim.addresses import ip


class TestEdgeHierarchy:
    def test_parents_and_ancestors(self):
        hierarchy = EdgeHierarchy({"access": "agg", "agg": "regional",
                                   "regional": None})
        assert hierarchy.parent("access") == "agg"
        assert hierarchy.ancestors("access") == ["agg", "regional"]
        assert hierarchy.ancestors("regional") == []

    def test_membership_and_top_tier(self):
        hierarchy = EdgeHierarchy({"a": "b", "b": None})
        assert "a" in hierarchy and "b" in hierarchy
        assert "c" not in hierarchy
        assert hierarchy.ancestors("a") == ["b"]
        assert hierarchy.parent("b") is None

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            EdgeHierarchy({"a": "b", "b": "c", "c": "a"})

    def test_self_parent_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            EdgeHierarchy({"a": "a"})


class TestHierarchicalScheduler:
    def setup_method(self):
        self.net = Network(seed=0)
        registry = Registry("hub", RegistryTiming(manifest_s=0.05,
                                                  layer_rtt_s=0.005,
                                                  bandwidth_bps=1e9))
        for image in all_catalog_images():
            registry.push(image)
        hub = RegistryHub(registry)
        hub.add("gcr.io", registry)
        self.zones = ZoneMap()
        self.clusters = []
        for zone, rtt in (("access", 0.001), ("agg", 0.005), ("regional", 0.012)):
            node = self.net.add_host(f"node-{zone}")
            runtime = Containerd(self.net.sim, node, hub)
            self.zones.set_rtt("client", zone, rtt)
            self.clusters.append(DockerCluster(
                self.net.sim, f"edge-{zone}",
                DockerEngine(self.net.sim, runtime), zone=zone))
        self.access, self.agg, self.regional = self.clusters
        self.hierarchy = EdgeHierarchy({
            "edge-access": "edge-agg",
            "edge-agg": "edge-regional",
            "edge-regional": None,
        })
        self.scheduler = HierarchicalScheduler(self.zones, self.hierarchy)
        services = ServiceRegistry()
        self.service = services.register(ServiceID(ip("198.51.100.1"), 80),
                                         image="nginx:1.23.2", container_port=80)

    def _deploy(self, cluster):
        def proc():
            yield cluster.pull(self.service.spec)
            yield cluster.create(self.service.spec)
            yield cluster.scale_up(self.service.spec)
            yield cluster.wait_ready(self.service.spec)

        p = self.net.sim.spawn(proc())
        self.net.run()
        assert p.exception is None

    def _pull(self, cluster):
        cluster.pull(self.service.spec)
        self.net.run()

    def _schedule(self, budget=None):
        self.service.max_initial_delay_s = budget
        instances = []
        for cluster in self.clusters:
            instances.extend(cluster.instances(self.service.spec))
        return self.scheduler.schedule(ScheduleRequest(
            service=self.service, client_zone="client",
            instances=[i for i in instances if i.ready],
            clusters=self.clusters))

    def test_ready_optimal_wins(self):
        self._deploy(self.access)
        placement = self._schedule(budget=0.05)
        assert placement.fast is self.access
        assert placement.best is None

    def test_no_budget_waits_at_optimal(self):
        placement = self._schedule(budget=None)
        assert placement.fast is self.access

    def test_running_ancestor_preferred(self):
        self._deploy(self.regional)
        placement = self._schedule(budget=0.05)
        assert placement.fast is self.regional
        assert placement.best is self.access

    def test_nearest_running_ancestor_wins_over_farther(self):
        self._deploy(self.agg)
        self._deploy(self.regional)
        placement = self._schedule(budget=0.05)
        assert placement.fast is self.agg

    def test_cached_ancestor_beats_cloud(self):
        self._pull(self.agg)
        placement = self._schedule(budget=0.05)
        assert placement.fast is self.agg  # pull-free cold start at parent
        assert placement.best is self.access

    def test_nothing_anywhere_goes_cloudward(self):
        placement = self._schedule(budget=0.05)
        assert placement.fast is None
        assert placement.best is self.access

    def test_ready_non_ancestor_used_as_last_resort(self):
        # a ready cluster that is NOT on the optimal's cloud route
        other_node = self.net.add_host("node-other")
        runtime = Containerd(self.net.sim, other_node,
                             self.access.runtime.hub)
        other = DockerCluster(self.net.sim, "edge-other",
                              DockerEngine(self.net.sim, runtime), zone="other")
        self.zones.set_rtt("client", "other", 0.020)
        self.clusters.append(other)
        self._deploy(other)
        placement = self._schedule(budget=0.05)
        assert placement.fast is other
        assert placement.best is self.access

    def test_empty_cluster_list(self):
        placement = self.scheduler.schedule(ScheduleRequest(
            service=self.service, client_zone="client",
            instances=[], clusters=[]))
        assert placement.toward_cloud

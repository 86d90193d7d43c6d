"""Unit tests for ServiceRegistry and FlowMemory."""

import pytest

from repro.core.flowmemory import FlowMemory
from repro.core.registry import ServiceRegistry
from repro.core.serviceid import ServiceID
from repro.edge.cluster import Endpoint
from repro.netsim.addresses import ip
from repro.simcore import Simulator


SID = ServiceID(ip("198.51.100.1"), 80)
SID2 = ServiceID(ip("198.51.100.2"), 80)


class FakeCluster:
    def __init__(self, name="fake"):
        self.name = name


class TestServiceRegistry:
    def test_register_and_lookup(self):
        registry = ServiceRegistry()
        service = registry.register(SID, image="nginx:1.23.2", container_port=80)
        assert registry.lookup(SID.addr, 80) is service
        assert registry.lookup(SID.addr, 81) is None
        assert SID in registry
        assert len(registry) == 1

    def test_duplicate_registration_rejected(self):
        registry = ServiceRegistry()
        registry.register(SID, image="nginx:1.23.2")
        with pytest.raises(ValueError):
            registry.register(SID, image="nginx:1.23.2")

    def test_register_requires_yaml_or_image(self):
        registry = ServiceRegistry()
        with pytest.raises(ValueError):
            registry.register(SID)

    def test_registered_address_index(self):
        registry = ServiceRegistry()
        registry.register(SID, image="nginx:1.23.2")
        assert registry.is_registered_address(SID.addr)
        assert not registry.is_registered_address(ip("9.9.9.9"))

    def test_two_services_same_address_different_ports(self):
        registry = ServiceRegistry()
        registry.register(SID, image="nginx:1.23.2")
        other = ServiceID(SID.addr, 8080)
        registry.register(other, image="josefhammer/web-asm:amd64")
        registry.deregister(SID)
        # address still registered through the second service
        assert registry.is_registered_address(SID.addr)
        registry.deregister(other)
        assert not registry.is_registered_address(SID.addr)

    def test_max_initial_delay_recorded(self):
        registry = ServiceRegistry()
        service = registry.register(SID, image="nginx:1.23.2",
                                    max_initial_delay_s=0.2)
        assert service.max_initial_delay_s == 0.2

    def test_unique_names_differ_across_services(self):
        registry = ServiceRegistry()
        a = registry.register(SID, image="nginx:1.23.2")
        b = registry.register(SID2, image="nginx:1.23.2")
        assert a.name != b.name


class TestFlowMemory:
    def setup_method(self):
        self.sim = Simulator()
        self.memory = FlowMemory(self.sim, idle_timeout_s=10.0)
        self.cluster = FakeCluster()
        self.endpoint = Endpoint(ip("10.0.0.9"), 32768)

    def test_remember_and_lookup(self):
        client = ip("10.0.0.1")
        self.memory.remember(client, SID, self.cluster, self.endpoint)
        flow = self.memory.lookup(client, SID)
        assert flow is not None
        assert flow.endpoint == self.endpoint
        assert self.memory.hits == 1

    def test_miss_counted(self):
        assert self.memory.lookup(ip("10.0.0.1"), SID) is None
        assert self.memory.misses == 1

    def test_idle_expiry_fires_callback(self):
        expired = []
        self.memory.on_idle = lambda flow, ref: expired.append((flow.key, ref))
        self.memory.remember(ip("10.0.0.1"), SID, self.cluster, self.endpoint)
        self.sim.run()
        assert self.sim.now == pytest.approx(10.0)
        assert expired == [((ip("10.0.0.1"), SID), False)]
        assert len(self.memory) == 0
        assert self.memory.expirations == 1

    def test_lookup_refreshes_idle_timer(self):
        expired = []
        self.memory.on_idle = lambda flow, ref: expired.append(self.sim.now)
        self.memory.remember(ip("10.0.0.1"), SID, self.cluster, self.endpoint)
        self.sim.schedule(6.0, self.memory.lookup, ip("10.0.0.1"), SID)
        self.sim.run()
        assert expired == [pytest.approx(16.0)]

    def test_peek_does_not_refresh(self):
        expired = []
        self.memory.on_idle = lambda flow, ref: expired.append(self.sim.now)
        self.memory.remember(ip("10.0.0.1"), SID, self.cluster, self.endpoint)
        self.sim.schedule(6.0, self.memory.peek, ip("10.0.0.1"), SID)
        self.sim.run()
        assert expired == [pytest.approx(10.0)]

    def test_still_referenced_flag(self):
        """Expiry reports whether other flows still use the same instance."""
        expired = []
        self.memory.on_idle = lambda flow, ref: expired.append(ref)
        self.memory.remember(ip("10.0.0.1"), SID, self.cluster, self.endpoint)

        def second_flow():
            self.memory.remember(ip("10.0.0.2"), SID, self.cluster, self.endpoint)

        self.sim.schedule(5.0, second_flow)
        self.sim.run()
        # first expires at 10 (other flow alive -> True),
        # second at 15 (alone -> False)
        assert expired == [True, False]

    def test_forget_prevents_expiry_callback(self):
        expired = []
        self.memory.on_idle = lambda flow, ref: expired.append(flow)
        self.memory.remember(ip("10.0.0.1"), SID, self.cluster, self.endpoint)
        self.memory.forget(ip("10.0.0.1"), SID)
        self.sim.run()
        assert expired == []

    def test_matching_endpoint_selects_all_its_clients(self):
        for suffix in range(3):
            self.memory.remember(ip(f"10.0.0.{suffix + 1}"), SID,
                                 self.cluster, self.endpoint)
        other = Endpoint(ip("10.0.0.9"), 40000)
        self.memory.remember(ip("10.0.0.9"), SID, self.cluster, other)
        victims = self.memory.matching(endpoint=self.endpoint)
        assert len(victims) == 3
        for flow in victims:
            self.memory.forget(flow.client, flow.service_id)
        assert len(self.memory) == 1

    def test_flows_for_service_and_endpoint(self):
        self.memory.remember(ip("10.0.0.1"), SID, self.cluster, self.endpoint)
        self.memory.remember(ip("10.0.0.2"), SID2, self.cluster, self.endpoint)
        assert len(self.memory.matching(service_id=SID)) == 1
        assert len(self.memory.matching(endpoint=self.endpoint)) == 2
        assert len(self.memory.matching(client=ip("10.0.0.2"),
                                        endpoint=self.endpoint)) == 1
        assert self.memory.matching(cluster=object()) == []
        assert len(self.memory.matching()) == 2

    def test_re_remember_replaces(self):
        client = ip("10.0.0.1")
        self.memory.remember(client, SID, self.cluster, self.endpoint)
        new_endpoint = Endpoint(ip("10.0.0.8"), 31000)
        self.memory.remember(client, SID, self.cluster, new_endpoint)
        assert self.memory.lookup(client, SID).endpoint == new_endpoint
        assert len(self.memory) == 1

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            FlowMemory(self.sim, idle_timeout_s=0)

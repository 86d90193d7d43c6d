"""Regression: the slow-path service memo must key on the FULL identity.

The registry keys services on the ``(addr, port, protocol)`` triple; the
controller's memoized service decision once keyed its cache on just
``(addr, port)``, so a TCP service's cached answer leaked into UDP lookups
for the same address and port (and vice versa).  These tests drive the
decision differentially against the live registry.  The memo has since
been deleted (the decision is the live lookup); they stay as the guard
should any cache come back in front of the registry.
"""

from repro.core.serviceid import ServiceID
from repro.experiments import build_testbed
from repro.netsim.addresses import ip

ADDR = ip("198.51.100.40")


def make_tb():
    return build_testbed(seed=13, n_clients=1, cluster_types=("docker",))


class TestServiceMemoProtocolKey:
    def test_tcp_and_udp_on_same_addr_port_are_distinct(self):
        tb = make_tb()
        registry = tb.controller.registry
        tcp = registry.register(ServiceID(ADDR, 80, "TCP"), image="nginx:1.23.2")
        udp = registry.register(ServiceID(ADDR, 80, "UDP"), image="nginx:1.23.2")
        # Prime the memo with the TCP answer, then ask for UDP: with the old
        # (addr, port) key the second call returned the cached TCP service.
        assert tb.controller.service_decision(ADDR, 80, "TCP") is tcp
        assert tb.controller.service_decision(ADDR, 80, "UDP") is udp
        # And the reverse priming order.
        tb2 = make_tb()
        registry2 = tb2.controller.registry
        tcp2 = registry2.register(ServiceID(ADDR, 80, "TCP"), image="nginx:1.23.2")
        udp2 = registry2.register(ServiceID(ADDR, 80, "UDP"), image="nginx:1.23.2")
        assert tb2.controller.service_decision(ADDR, 80, "UDP") is udp2
        assert tb2.controller.service_decision(ADDR, 80, "TCP") is tcp2

    def test_negative_memo_does_not_leak_across_protocols(self):
        tb = make_tb()
        registry = tb.controller.registry
        tcp = registry.register(ServiceID(ADDR, 80, "TCP"), image="nginx:1.23.2")
        # Cache a UDP miss, then make sure TCP still resolves (and the miss
        # stays a miss).
        assert tb.controller.service_decision(ADDR, 80, "UDP") is None
        assert tb.controller.service_decision(ADDR, 80, "TCP") is tcp
        assert tb.controller.service_decision(ADDR, 80, "UDP") is None

    def test_memoized_matches_registry_over_identity_grid(self):
        """Differential: the memoized decision must equal the live registry
        lookup (its own miss path) for every (addr, port, protocol)
        combination around the registered set, first ask and repeat."""
        tb = make_tb()
        registry = tb.controller.registry
        registry.register(ServiceID(ADDR, 80, "TCP"), image="nginx:1.23.2")
        registry.register(ServiceID(ADDR, 80, "UDP"), image="nginx:1.23.2")
        registry.register(ServiceID(ADDR, 443, "TCP"), image="nginx:1.23.2")
        for _ask in range(2):
            for addr in (ADDR, ip("198.51.100.41")):
                for port in (80, 443, 8080):
                    for protocol in ("TCP", "UDP"):
                        got = tb.controller.service_decision(addr, port, protocol)
                        want = registry.lookup_prefix(addr, port, protocol)
                        assert got is want, (addr, port, protocol)

    def test_generation_bump_invalidates_stale_answers(self):
        tb = make_tb()
        registry = tb.controller.registry
        assert tb.controller.service_decision(ADDR, 80, "UDP") is None
        udp = registry.register(ServiceID(ADDR, 80, "UDP"), image="nginx:1.23.2")
        assert tb.controller.service_decision(ADDR, 80, "UDP") is udp
        registry.deregister(ServiceID(ADDR, 80, "UDP"))
        assert tb.controller.service_decision(ADDR, 80, "UDP") is None

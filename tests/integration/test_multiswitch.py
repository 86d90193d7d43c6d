"""Integration tests for the multi-switch fabric (access/core topology)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.fabric import FabricError, FabricTopology
from repro.experiments.multiswitch import build_multiswitch_testbed


class TestFabricTopology:
    def make(self):
        fabric = FabricTopology()
        for dpid in (1, 2, 100):
            fabric.add_switch(dpid)
        fabric.add_link(1, 9, 100, 1, weight=1.0)
        fabric.add_link(2, 9, 100, 2, weight=1.0)
        return fabric

    def test_path_via_core(self):
        fabric = self.make()
        assert fabric.path(1, 2) == [1, 100, 2]
        assert fabric.path(1, 100) == [1, 100]
        assert fabric.path(1, 1) == [1]
        assert fabric.hops(1, 2) == 2

    def test_port_toward(self):
        fabric = self.make()
        assert fabric.port_toward(1, 100) == 9
        assert fabric.port_toward(100, 1) == 1
        with pytest.raises(FabricError):
            fabric.port_toward(1, 2)  # not adjacent

    def test_no_path_raises(self):
        fabric = self.make()
        fabric.add_switch(50)  # isolated
        with pytest.raises(FabricError):
            fabric.path(1, 50)

    def test_duplicate_link_rejected(self):
        fabric = self.make()
        with pytest.raises(FabricError):
            fabric.add_link(1, 8, 100, 3)

    def test_self_link_rejected(self):
        fabric = self.make()
        with pytest.raises(FabricError):
            fabric.add_link(1, 8, 1, 9)

    def test_interswitch_port_detection(self):
        fabric = self.make()
        assert fabric.is_interswitch_port(1, 9)
        assert fabric.is_interswitch_port(100, 1)
        assert not fabric.is_interswitch_port(1, 1)  # client-facing

    def test_weighted_shortest_path(self):
        fabric = FabricTopology()
        for dpid in (1, 2, 3):
            fabric.add_switch(dpid)
        fabric.add_link(1, 1, 2, 1, weight=1.0)
        fabric.add_link(2, 2, 3, 1, weight=1.0)
        fabric.add_link(1, 2, 3, 2, weight=10.0)  # direct but expensive
        assert fabric.path(1, 3) == [1, 2, 3]

    def test_weighted_diamond_prefers_cost_over_hops(self):
        fabric = FabricTopology()
        # the two-hop side first, so insertion order alone would pick it
        fabric.add_link(1, 1, 2, 1, weight=5.0)
        fabric.add_link(2, 2, 4, 1, weight=5.0)
        fabric.add_link(1, 2, 3, 1, weight=1.0)
        fabric.add_link(3, 2, 5, 1, weight=1.0)
        fabric.add_link(5, 2, 4, 2, weight=1.0)
        assert fabric.path(1, 4) == [1, 3, 5, 4]
        assert fabric.path(4, 1) == [4, 5, 3, 1]
        assert fabric.hops(1, 4) == 3

    @pytest.mark.parametrize("first_side, second_side", [(9, 3), (3, 9)])
    def test_equal_cost_tie_goes_to_the_first_added_link(self, first_side,
                                                         second_side):
        """Two two-hop paths of equal cost: the side whose link from the
        source was added first wins, whatever the dpid numbers."""
        fabric = FabricTopology()
        fabric.add_link(1, first_side, first_side, 1, weight=1.0)
        fabric.add_link(1, second_side, second_side, 1, weight=1.0)
        fabric.add_link(second_side, 2, 4, second_side, weight=1.0)
        fabric.add_link(first_side, 2, 4, first_side, weight=1.0)
        assert fabric.path(1, 4) == [1, first_side, 4]

    def test_disconnected_and_unknown_switches_raise(self):
        fabric = FabricTopology()
        fabric.add_link(1, 1, 2, 1)
        fabric.add_link(3, 1, 4, 1)  # a second island
        for src, dst in ((1, 4), (4, 1), (1, 99), (99, 1)):
            with pytest.raises(FabricError):
                fabric.path(src, dst)
        with pytest.raises(FabricError):
            fabric.hops(2, 3)
        # joining the islands makes the pair routable
        fabric.add_link(2, 2, 3, 2)
        assert fabric.path(1, 4) == [1, 2, 3, 4]

    def test_negative_weight_rejected(self):
        fabric = FabricTopology()
        with pytest.raises(FabricError):
            fabric.add_link(1, 1, 2, 1, weight=-1.0)
        assert not fabric.has_switch(1)


def test_importing_the_package_loads_no_networkx():
    """Shortest paths are computed in-house: importing the library (the
    fabric rides in with the controller) pulls in no undeclared graph
    library."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    code = ("import sys\n"
            "import repro.core, repro.experiments\n"
            "assert 'networkx' not in sys.modules, 'networkx was imported'\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr


class TestMultiSwitchDataPath:
    def test_transparent_access_across_two_hops(self):
        tb = build_multiswitch_testbed(seed=1)
        svc = tb.register_catalog_service("nginx")
        request = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 8.0)  # within the switch idle timeout
        assert request.done and request.result.ok
        # rewrite rules at the ingress access switch AND forwarding at core
        access = tb.access_switches[0]
        assert len(access.table) >= 3  # miss + up + down
        assert len(tb.switch.table) >= 3

    def test_warm_path_no_packet_ins(self):
        tb = build_multiswitch_testbed(seed=1)
        svc = tb.register_catalog_service("nginx")
        first = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 8.0)
        assert first.result.ok
        before = (tb.switch.packet_ins
                  + sum(s.packet_ins for s in tb.access_switches))
        warm = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 1.0)
        assert warm.result.ok
        after = (tb.switch.packet_ins
                 + sum(s.packet_ins for s in tb.access_switches))
        assert after == before

    def test_transparency_across_fabric(self):
        tb = build_multiswitch_testbed(seed=1)
        svc = tb.register_catalog_service("asm")
        client_host = tb.clients[0]
        sources = []
        original = client_host.on_frame

        def spy(port_no, frame):
            if frame.tcp is not None:
                sources.append((frame.ipv4.src, frame.tcp.src_port))
            original(port_no, frame)

        client_host.on_frame = spy
        request = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 30.0)
        assert request.result.ok
        assert sources
        assert all(src == (svc.service_id.addr, svc.service_id.port)
                   for src in sources)

    def test_clients_on_different_access_switches(self):
        tb = build_multiswitch_testbed(seed=1, n_access_switches=2,
                                       clients_per_switch=2)
        svc = tb.register_catalog_service("nginx")
        first = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 30.0)
        assert first.result.ok
        # a client behind the OTHER access switch reuses the instance
        other = tb.client(2).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 5.0)
        assert other.result.ok
        assert other.result.time_total < 0.05
        assert len(tb.engine.records_for(cold_only=True)) == 1

    def test_host_learning_ignores_interswitch_ports(self):
        tb = build_multiswitch_testbed(seed=1)
        svc = tb.register_catalog_service("nginx")
        request = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 30.0)
        assert request.result.ok
        client = tb.clients[0]
        dpid, port, mac = tb.controller.hosts[client.ip]
        assert dpid == tb.access_switches[0].dpid  # never a core location
        assert port <= 3

    def test_client_to_client_routing_across_switches(self):
        tb = build_multiswitch_testbed(seed=1, n_access_switches=2,
                                       clients_per_switch=2)
        a, b = tb.clients[0], tb.clients[2]  # different access switches
        got = []
        b.listen_udp(7000, lambda src, dg: got.append(dg.payload))
        # teach the controller where B is
        from repro.netsim.addresses import ip as mkip
        b.send_udp(mkip("203.0.113.9"), 53, "x", 10)
        tb.run(until=tb.sim.now + 1.0)
        a.send_udp(b.ip, 7000, "cross-fabric", 16)
        tb.run(until=tb.sim.now + 2.0)
        assert got == ["cross-fabric"]

    def test_handover_between_access_switches(self):
        """Follow-me across the fabric: the client's flows are removed on
        every switch, and the next request works from scratch."""
        tb = build_multiswitch_testbed(seed=1, memory_idle_timeout_s=3600.0,
                                       switch_idle_timeout_s=3600.0)
        svc = tb.register_catalog_service("nginx")
        first = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 30.0)
        assert first.result.ok
        invalidated = tb.move_client(0, "access-1")
        tb.run(until=tb.sim.now + 1.0)
        assert invalidated == 1
        again = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 10.0)
        assert again.result.ok

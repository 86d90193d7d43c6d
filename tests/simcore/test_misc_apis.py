"""Coverage for smaller kernel/netsim APIs: timeout cancellation and
Network helpers."""

import pytest

from repro.netsim import Network
from repro.netsim.device import Device
from repro.simcore import Simulator
from repro.simcore.process import Timeout


class TestTimeoutCancel:
    def test_cancelled_timeout_never_fires(self):
        sim = Simulator()
        timeout = Timeout(sim, 5.0)
        fired = []
        timeout._wait_subscribe(lambda t: fired.append(sim.now))
        timeout.cancel()
        sim.run()
        assert fired == []
        assert not timeout.done

    def test_timeout_value_carried(self):
        sim = Simulator()
        timeout = Timeout(sim, 1.0, value="payload")
        got = []

        def proc():
            value = yield timeout
            got.append(value)

        sim.spawn(proc())
        sim.run()
        assert got == ["payload"]

    def test_subscribe_after_expiry_fires_immediately(self):
        sim = Simulator()
        timeout = Timeout(sim, 1.0)
        sim.run()
        assert timeout.done
        fired = []
        timeout._wait_subscribe(lambda t: fired.append(True))
        sim.run()
        assert fired == [True]


class Sink(Device):
    def on_frame(self, port_no, frame):
        pass


class TestNetworkHelpers:
    def test_duplicate_host_name_rejected(self):
        net = Network(seed=0)
        net.add_host("a")
        with pytest.raises(ValueError):
            net.add_host("a")

    def test_duplicate_device_rejected(self):
        net = Network(seed=0)
        net.add_device(Sink(net.sim, "sw"))
        with pytest.raises(ValueError):
            net.add_device(Sink(net.sim, "sw"))

    def test_address_allocation_monotonic_unique(self):
        net = Network(seed=0)
        ips = [net.alloc_ip() for _ in range(10)]
        macs = [net.alloc_mac() for _ in range(10)]
        assert len(set(ips)) == 10
        assert len(set(macs)) == 10
        assert sorted(ips) == ips

    def test_network_now_tracks_sim(self):
        net = Network(seed=0)
        net.sim.schedule(2.5, lambda: None)
        net.run()
        assert net.now == 2.5

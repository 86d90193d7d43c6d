"""ServiceID is the tuple ``(addr, port, protocol)``, and the registry's read
path probes with that plain tuple.

Two consequences are pinned here: everything a frozen-dataclass ServiceID
offered still holds (validation on every way in, immutability, the accessors),
and an identity no ServiceID can name — port 0, port 70000, protocol "SCTP" —
is simply *not registered* on the read path, where building a ServiceID to
probe with used to raise out of the controller's packet-in handler.
"""

import copy
import pickle

import pytest

from repro.core.registry import ServiceRegistry
from repro.core.serviceid import ServiceID
from repro.experiments.topologies import build_testbed
from repro.netsim.addresses import ip

ADDR = ip("198.51.100.7")
SID = ServiceID(ADDR, 80)

#: (port, protocol) pairs ServiceID() rejects (test_serviceid_annotate.py)
UNNAMEABLE = [(0, "TCP"), (0, "UDP"), (70000, "TCP"), (80, "SCTP")]


class TestIsTheTuple:
    def test_equals_and_hashes_like_the_plain_tuple(self):
        plain = (ADDR, 80, "TCP")
        assert SID == plain and plain == SID
        assert hash(SID) == hash(plain)
        assert {SID: "x"}[plain] == "x"
        assert SID != (ADDR, 80, "UDP")
        assert tuple(SID) == plain and len(SID) == 3

    def test_accessors_unchanged(self):
        sid = ServiceID(addr=ADDR, port=443, protocol="UDP")
        assert (sid.addr, sid.port, sid.protocol) == (ADDR, 443, "UDP")
        assert ServiceID(ADDR, 443).protocol == "TCP"
        assert str(sid) == "198.51.100.7:443"
        assert sid.slug == "198-51-100-7-443"
        assert repr(SID) == "ServiceID(addr=IPv4('198.51.100.7'), port=80, protocol='TCP')"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            SID.port = 81
        with pytest.raises(AttributeError):
            SID.extra = 1

    def test_pickle_and_copy_stay_service_ids(self):
        for clone in (pickle.loads(pickle.dumps(SID)), copy.copy(SID),
                      copy.deepcopy(SID)):
            assert type(clone) is ServiceID
            assert clone == SID and clone.addr is ADDR

    def test_every_way_in_validates(self):
        rebuild, args = SID.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:2]
        assert rebuild(*args) == SID  # what unpickling and copy call ...
        with pytest.raises(ValueError):
            rebuild(ServiceID, ADDR, 0)  # ... runs the checks again
        with pytest.raises(ValueError):
            SID._replace(port=0)
        with pytest.raises(ValueError):
            ServiceID._make((ADDR, 80, "SCTP"))
        assert SID._replace(port=81) == ServiceID(ADDR, 81)


class TestUnnameableIdentityIsNotRegistered:
    @pytest.mark.parametrize("port,protocol", UNNAMEABLE)
    def test_registry_reads_answer_not_registered(self, port, protocol):
        registry = ServiceRegistry()
        registry.register(SID, image="nginx:1.23")
        registry.register(ServiceID(ip("198.51.100.0"), 80), image="nginx:1.23",
                          prefix_len=24)
        assert registry.lookup(ADDR, port, protocol) is None
        assert registry.lookup_prefix(ADDR, port, protocol) is None
        # the negative token: no exact stamp, the covering chain as it stands
        stamp, covering = registry.generation_of(ADDR, port, protocol)
        assert stamp == 0
        assert covering == registry.generation_of(ADDR, 81)[1]

    def test_syn_to_port_zero_leaves_the_controller_up(self):
        """One client packet must not end the run: it takes the plain-routing
        path, and the same client's next valid request is served."""
        tb = build_testbed(seed=1, n_clients=2)
        service = tb.register_catalog_service("nginx")
        sid = service.service_id
        controller = tb.controller
        tb.client(0).fetch(sid.addr, 0)
        tb.clients[0].send_udp(sid.addr, 0, b"probe")
        tb.sim.run(until=tb.sim.now + 1.0)
        assert controller.stats["dropped_unknown_dst"] >= 2
        for port, protocol in UNNAMEABLE:
            assert controller.service_decision(sid.addr, port, protocol) is None
        request = tb.client(0).fetch(sid.addr, sid.port)
        tb.sim.run(until=tb.sim.now + 30.0)
        assert request.done and request.result.ok
        assert controller.stats["service_dispatches"] == 1

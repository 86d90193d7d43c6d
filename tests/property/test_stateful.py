"""Model-based (hypothesis stateful) tests for FlowTable and FlowMemory.

Each machine drives the real implementation and a trivially-correct Python
model through the same operation sequence, checking observable equivalence
at every step — the strongest correctness evidence we have for the
structures the data path depends on.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.flowmemory import FlowMemory
from repro.core.serviceid import ServiceID
from repro.edge.cluster import Endpoint
from repro.netsim.addresses import ip
from repro.openflow import FlowEntry, FlowTable, Match, OutputAction
from repro.simcore import Simulator


PORTS = st.integers(min_value=1, max_value=6)
PRIORITIES = st.integers(min_value=0, max_value=4)


class FlowTableMachine(RuleBasedStateMachine):
    """FlowTable vs. a list-based model (no timeouts: pure add/delete/
    lookup semantics)."""

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.table = FlowTable(self.sim)
        self.model = []  # list of (priority, port, insertion_seq, entry)
        self.seq = 0

    @rule(priority=PRIORITIES, port=PORTS)
    def install(self, priority, port):
        entry = FlowEntry(match=Match(tcp_dst=port), priority=priority,
                          actions=[OutputAction(1)])
        self.table.install(entry)
        # model OFPFC_ADD replace semantics
        self.model = [m for m in self.model
                      if not (m[0] == priority and m[1] == port)]
        self.seq += 1
        self.model.append((priority, port, self.seq, entry))

    @rule(port=PORTS)
    def delete_by_port(self, port):
        count = self.table.delete(Match(tcp_dst=port))
        expected = [m for m in self.model if m[1] == port]
        assert count == len(expected)
        self.model = [m for m in self.model if m[1] != port]

    @rule()
    def delete_all(self):
        count = self.table.delete(Match())
        assert count == len(self.model)
        self.model = []

    @rule(port=PORTS)
    def lookup(self, port):
        fields = {"eth_type": 0x0800, "ip_proto": 6, "tcp_dst": port}
        actual = self.table.lookup(fields)
        candidates = [m for m in self.model if m[1] == port]
        if not candidates:
            assert actual is None
        else:
            # highest priority, earliest insertion among that priority
            best = sorted(candidates, key=lambda m: (-m[0], m[2]))[0]
            assert actual is best[3]

    @invariant()
    def sizes_agree(self):
        assert len(self.table) == len(self.model)


class FlowMemoryMachine(RuleBasedStateMachine):
    """FlowMemory vs. a dict model, including virtual-time idle expiry."""

    CLIENTS = [ip(f"10.0.0.{i}") for i in range(1, 4)]
    SERVICES = [ServiceID(ip("198.51.100.1"), 80),
                ServiceID(ip("198.51.100.2"), 80)]

    class _FakeCluster:
        name = "fake"

    #: two clusters publishing the same two endpoints: instances are told
    #: apart by cluster identity *and* endpoint value
    CLUSTERS = [_FakeCluster(), _FakeCluster()]
    ENDPOINTS = [Endpoint(ip("10.0.0.9"), 32768), Endpoint(ip("10.0.0.9"), 32769)]

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.idle = 10.0
        self.memory = FlowMemory(self.sim, idle_timeout_s=self.idle,
                                 on_idle=self._check_still_referenced)
        self.model = {}  # key -> last_used time

    def _check_still_referenced(self, flow, still_referenced):
        """The flag handed to on_idle is the one a scan of the live flows gives."""
        assert still_referenced == any(
            other.endpoint == flow.endpoint and other.cluster is flow.cluster
            for other in self.memory._flows.values())

    def _expire_model(self):
        now = self.sim.now
        self.model = {k: t for k, t in self.model.items()
                      if now < t + self.idle - 1e-12}

    @rule(client=st.sampled_from(CLIENTS), service=st.sampled_from(SERVICES),
          cluster=st.sampled_from(CLUSTERS), endpoint=st.sampled_from(ENDPOINTS))
    def remember(self, client, service, cluster, endpoint):
        self.memory.remember(client, service, cluster, endpoint)
        self.model[(client, service)] = self.sim.now

    @rule(client=st.sampled_from(CLIENTS), service=st.sampled_from(SERVICES))
    def lookup(self, client, service):
        found = self.memory.lookup(client, service)
        if (client, service) in self.model:
            assert found is not None
            self.model[(client, service)] = self.sim.now  # refresh
        else:
            assert found is None

    @rule(client=st.sampled_from(CLIENTS), service=st.sampled_from(SERVICES))
    def forget(self, client, service):
        self.memory.forget(client, service)
        self.model.pop((client, service), None)

    @rule(endpoint=st.sampled_from(ENDPOINTS))
    def forget_endpoint(self, endpoint):
        for flow in self.memory.matching(endpoint=endpoint):
            assert self.memory.forget(flow.client, flow.service_id) is flow
            del self.model[flow.key]

    @rule()
    def clear(self):
        self.memory.clear()
        self.model.clear()

    @rule(dt=st.floats(min_value=0.1, max_value=15.0))
    def advance_time(self, dt):
        self.sim.run(until=self.sim.now + dt)
        self._expire_model()

    @invariant()
    def contents_agree(self):
        self._expire_model()
        assert len(self.memory) == len(self.model)
        for key in self.model:
            assert key in self.memory

    @invariant()
    def reference_counts_are_a_recount(self):
        recount = {}
        for flow in self.memory._flows.values():
            target = (flow.cluster, flow.endpoint.ip, flow.endpoint.port)
            recount[target] = recount.get(target, 0) + 1
        assert self.memory._refs == recount


TestFlowTableMachine = FlowTableMachine.TestCase
TestFlowTableMachine.settings = settings(max_examples=40,
                                         stateful_step_count=30,
                                         deadline=None)

TestFlowMemoryMachine = FlowMemoryMachine.TestCase
TestFlowMemoryMachine.settings = settings(max_examples=40,
                                          stateful_step_count=30,
                                          deadline=None)

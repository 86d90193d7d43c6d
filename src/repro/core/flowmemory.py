"""FlowMemory: the controller-side mirror of installed redirection flows (§V).

Why it exists (two purposes, per the paper):

1. Switch flow entries can use *low* idle timeouts — when a re-miss occurs,
   the controller answers from FlowMemory without re-dispatching (no
   scheduler run, no deployment check), so re-installing the flow is cheap.
2. FlowMemory entries have their *own* (longer) idle timeout; when the last
   flow referencing a service instance expires, the controller may
   automatically scale the idle instance down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.serviceid import ServiceID
from repro.edge.cluster import Endpoint
from repro.netsim.addresses import IPv4

if TYPE_CHECKING:  # pragma: no cover
    from repro.edge.cluster import EdgeCluster
    from repro.simcore import Simulator

#: (client address, service identity)
FlowKey = Tuple[IPv4, ServiceID]


@dataclass
class MemorizedFlow:
    """One remembered redirection: client × service → chosen instance."""

    key: FlowKey
    cluster: "EdgeCluster"
    endpoint: Endpoint
    created_at: float
    last_used: float
    #: packets seen via this memorized decision (incl. re-misses answered)
    uses: int = 0

    @property
    def client(self) -> IPv4:
        return self.key[0]

    @property
    def service_id(self) -> ServiceID:
        return self.key[1]


class FlowMemory:
    """Idle-timeout-governed map of memorized flows.

    ``on_idle(flow, still_referenced)`` fires when an entry expires;
    ``still_referenced`` is True when other live entries still point at the
    same (cluster, endpoint) — the scale-down hook acts only when False.
    """

    def __init__(self, sim: "Simulator", idle_timeout_s: float = 60.0,
                 on_idle: Optional[Callable[[MemorizedFlow, bool], None]] = None) -> None:
        if idle_timeout_s <= 0:
            raise ValueError("idle timeout must be positive")
        self.sim = sim
        self.idle_timeout_s = idle_timeout_s
        self.on_idle = on_idle
        self._flows: Dict[FlowKey, MemorizedFlow] = {}
        #: live flows per instance, so an expiry answers ``still_referenced``
        #: without scanning ``_flows``. Keyed on the endpoint's fields, not
        #: the Endpoint: its dataclass ``__hash__`` runs in Python.
        self._refs: Dict[Tuple["EdgeCluster", IPv4, int], int] = {}
        #: diagnostics
        self.hits = 0
        self.misses = 0
        self.expirations = 0

    # --------------------------------------------------------------- access

    def lookup(self, client: IPv4, service_id: ServiceID) -> Optional[MemorizedFlow]:
        """Look up and *touch* (refresh idle timer of) a memorized flow."""
        flow = self._flows.get((client, service_id))
        if flow is None:
            self.misses += 1
            return None
        flow.last_used = self.sim.now
        flow.uses += 1
        self.hits += 1
        return flow

    def peek(self, client: IPv4, service_id: ServiceID) -> Optional[MemorizedFlow]:
        """Lookup without refreshing the idle timer (diagnostics)."""
        return self._flows.get((client, service_id))

    def remember(self, client: IPv4, service_id: ServiceID,
                 cluster: "EdgeCluster", endpoint: Endpoint) -> MemorizedFlow:
        key = (client, service_id)
        flow = MemorizedFlow(key=key, cluster=cluster, endpoint=endpoint,
                             created_at=self.sim.now, last_used=self.sim.now)
        previous = self._flows.get(key)
        if previous is not None:
            self._unref(previous)
        self._flows[key] = flow
        target = (cluster, endpoint.ip, endpoint.port)
        self._refs[target] = self._refs.get(target, 0) + 1
        if previous is None:
            self.sim.schedule(self.idle_timeout_s, self._idle_check, key)
        return flow

    def forget(self, client: IPv4, service_id: ServiceID) -> Optional[MemorizedFlow]:
        flow = self._flows.pop((client, service_id), None)
        if flow is not None:
            self._unref(flow)
        return flow

    def clear(self) -> None:
        """Drop every memorized flow (no on_idle callbacks fire)."""
        self._flows.clear()
        self._refs.clear()

    # -------------------------------------------------------------- timeouts

    def _idle_check(self, key: FlowKey) -> None:
        flow = self._flows.get(key)
        if flow is None:
            return
        deadline = flow.last_used + self.idle_timeout_s
        if self.sim.now < deadline - 1e-12:
            self.sim.schedule(max(0.0, deadline - self.sim.now), self._idle_check, key)
            return
        del self._flows[key]
        still_referenced = self._unref(flow)
        self.expirations += 1
        if self.on_idle is not None:
            self.on_idle(flow, still_referenced)

    def _unref(self, flow: MemorizedFlow) -> bool:
        """Count a removed flow out; True while other live flows still point
        at its (cluster, endpoint)."""
        target = (flow.cluster, flow.endpoint.ip, flow.endpoint.port)
        left = self._refs[target] - 1
        if left:
            self._refs[target] = left
        else:
            del self._refs[target]
        return left > 0

    # --------------------------------------------------------------- queries

    def matching(self, client: Optional[IPv4] = None,
                 service_id: Optional[ServiceID] = None,
                 cluster: Optional["EdgeCluster"] = None,
                 endpoint: Optional[Endpoint] = None) -> List[MemorizedFlow]:
        """Every memorized flow matching all the given fields (None: any);
        ``cluster`` is compared by identity."""
        return [flow for flow in self._flows.values()
                if (client is None or flow.key[0] == client)
                and (service_id is None or flow.key[1] == service_id)
                and (cluster is None or flow.cluster is cluster)
                and (endpoint is None or flow.endpoint == endpoint)]

    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, key: FlowKey) -> bool:
        return key in self._flows

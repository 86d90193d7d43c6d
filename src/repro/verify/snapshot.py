"""Frozen, pure views of the network for verification.

A :class:`NetworkSnapshot` captures everything the invariants read — every
switch's flow table (in table order), the physical/learned topology, and the
controller's bookkeeping (registry, live endpoints, :class:`FlowMemory`,
cookie→cluster ledger) — as immutable value objects. Building a snapshot
never mutates the simulation: all reads are peek-style (no ``table.lookup``,
no ``FlowMemory.lookup``), so snapshotting mid-run cannot perturb a
deterministic trace.

Two builders cover the two vantage points:

* :func:`snapshot_control_plane` — what the *controller* can see (learned
  hosts, fabric config, connected datapaths). This is what the sanitizer
  hook uses after a resync.
* :func:`snapshot_testbed` — ground truth from a :class:`Testbed`: host
  attachments and inter-switch adjacency are read from the physical links,
  so a controller with a stale host table cannot hide a blackhole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.netsim.addresses import IPv4, MAC
from repro.openflow.actions import Action
from repro.openflow.match import Match


@dataclass(frozen=True)
class RuleView:
    """One installed flow entry, stripped to what verification reads."""

    match: Match
    priority: int
    #: install sequence — tie-break among equal priorities (FIFO semantics)
    seq: int
    cookie: int
    flags: int
    actions: Tuple[Action, ...]

    @property
    def sort_key(self) -> Tuple[int, int]:
        """Table order, ``(-priority, seq)``, as ``FlowEntry.sort_key``."""
        return (-self.priority, self.seq)

    def label(self) -> str:
        """Stable human-readable identifier (field-based, not seq-based)."""
        conds = ",".join(f"{fld}={val}" for fld, val in self.match.items())
        return f"rule[p{self.priority} {conds or 'any'}]"


@dataclass(frozen=True)
class SwitchView:
    """One datapath: its rules in table order."""

    dpid: int
    name: str
    #: rules in flow-table order (descending priority, ascending seq)
    rules: Tuple[RuleView, ...]


@dataclass(frozen=True)
class HostView:
    """A host attachment point (ground truth or controller-learned)."""

    ip: IPv4
    dpid: int
    port_no: int
    mac: MAC


@dataclass(frozen=True)
class LinkView:
    """One *directed* inter-switch hop: out ``port_no`` lands on peer."""

    dpid: int
    port_no: int
    peer_dpid: int
    peer_port: int


@dataclass(frozen=True)
class ServiceView:
    """A registered edge service identity (the vIP the client dials)."""

    addr: IPv4
    port: int
    name: str


@dataclass(frozen=True)
class EndpointView:
    """A live, ready edge instance endpoint and the service it serves."""

    ip: IPv4
    port: int
    cluster: str
    service_addr: IPv4
    service_port: int


@dataclass(frozen=True)
class MemoryView:
    """One FlowMemory record: client × service → chosen endpoint."""

    client: IPv4
    service_addr: IPv4
    service_port: int
    endpoint_ip: IPv4
    endpoint_port: int
    cluster: str


@dataclass(frozen=True)
class ControlView:
    """The controller-side state the coherence invariants read."""

    alive: bool
    epoch: int
    use_flow_memory: bool
    vgw_ip: IPv4
    vgw_mac: MAC
    services: Tuple[ServiceView, ...]
    live_endpoints: Tuple[EndpointView, ...]
    memory: Tuple[MemoryView, ...]
    #: (cookie, cluster-name) pairs from the load-bookkeeping ledger
    cookie_cluster: Tuple[Tuple[int, str], ...]


@dataclass
class NetworkSnapshot:
    """An immutable network state with precomputed lookup indexes.

    The tuples are the value; the dict indexes are derived in
    ``__post_init__`` so :func:`dataclasses.replace` (used by the
    planted-violation mutations) rebuilds them automatically.
    """

    switches: Tuple[SwitchView, ...]
    adjacency: Tuple[LinkView, ...]
    hosts: Tuple[HostView, ...]
    control: ControlView

    _switch_by_dpid: Dict[int, SwitchView] = field(
        init=False, repr=False, compare=False)
    _peer_by_port: Dict[Tuple[int, int], Tuple[int, int]] = field(
        init=False, repr=False, compare=False)
    _host_by_attachment: Dict[Tuple[int, int], HostView] = field(
        init=False, repr=False, compare=False)
    _host_by_ip: Dict[IPv4, HostView] = field(
        init=False, repr=False, compare=False)
    _service_by_key: Dict[Tuple[IPv4, int], ServiceView] = field(
        init=False, repr=False, compare=False)
    _endpoint_by_key: Dict[Tuple[IPv4, int], EndpointView] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._switch_by_dpid = {view.dpid: view for view in self.switches}
        self._peer_by_port = {
            (link.dpid, link.port_no): (link.peer_dpid, link.peer_port)
            for link in self.adjacency}
        self._host_by_attachment = {
            (host.dpid, host.port_no): host for host in self.hosts}
        self._host_by_ip = {host.ip: host for host in self.hosts}
        self._service_by_key = {
            (svc.addr, svc.port): svc for svc in self.control.services}
        self._endpoint_by_key = {
            (ep.ip, ep.port): ep for ep in self.control.live_endpoints}

    # ------------------------------------------------------------- lookups

    def switch(self, dpid: int) -> Optional[SwitchView]:
        return self._switch_by_dpid.get(dpid)

    def peer(self, dpid: int, port_no: int) -> Optional[Tuple[int, int]]:
        """(peer_dpid, peer_port) when the port is an inter-switch link."""
        return self._peer_by_port.get((dpid, port_no))

    def host_at(self, dpid: int, port_no: int) -> Optional[HostView]:
        return self._host_by_attachment.get((dpid, port_no))

    def host(self, ip: IPv4) -> Optional[HostView]:
        return self._host_by_ip.get(ip)

    def service(self, addr: Optional[IPv4],
                port: Optional[int]) -> Optional[ServiceView]:
        if addr is None or port is None:
            return None
        return self._service_by_key.get((addr, port))

    def endpoint(self, ip: Optional[IPv4],
                 port: Optional[int]) -> Optional[EndpointView]:
        if ip is None or port is None:
            return None
        return self._endpoint_by_key.get((ip, port))

    @property
    def total_rules(self) -> int:
        return sum(len(view.rules) for view in self.switches)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _switch_view(switch: Any) -> SwitchView:
    """Freeze one :class:`OpenFlowSwitch`'s table."""
    rules = tuple(
        RuleView(match=entry.match, priority=entry.priority, seq=entry.seq,
                 cookie=entry.cookie, flags=entry.flags,
                 actions=tuple(entry.actions))
        for entry in switch.table.entries)
    return SwitchView(dpid=switch.dpid, name=switch.name, rules=rules)


def _control_view(controller: Any, alive: bool) -> ControlView:
    """Freeze the controller bookkeeping (pure peek-style reads)."""
    services = tuple(sorted(
        (ServiceView(addr=svc.service_id.addr, port=svc.service_id.port,
                     name=svc.name)
         for svc in controller.registry.services()),
        key=lambda s: (s.addr, s.port)))
    live = controller._live_endpoints()
    endpoints = tuple(sorted(
        (EndpointView(ip=endpoint.ip, port=endpoint.port,
                      cluster=cluster.name,
                      service_addr=service.service_id.addr,
                      service_port=service.service_id.port)
         for endpoint, (cluster, service) in live.items()),
        key=lambda e: (e.ip, e.port)))
    memory_views: Tuple[MemoryView, ...] = ()
    if controller.memory is not None:
        memory_views = tuple(sorted(
            (MemoryView(client=flow.client,
                        service_addr=flow.service_id.addr,
                        service_port=flow.service_id.port,
                        endpoint_ip=flow.endpoint.ip,
                        endpoint_port=flow.endpoint.port,
                        cluster=flow.cluster.name)
             for flow in controller.memory.matching()),
            key=lambda m: (m.client, m.service_addr, m.service_port)))
    cookie_cluster = tuple(sorted((cookie, record.cluster.name)
                                  for cookie, record in controller._redirects.items()))
    return ControlView(alive=alive, epoch=controller.epoch,
                       use_flow_memory=controller.cfg.use_flow_memory,
                       vgw_ip=controller.cfg.vgw_ip,
                       vgw_mac=controller.cfg.vgw_mac,
                       services=services, live_endpoints=endpoints,
                       memory=memory_views, cookie_cluster=cookie_cluster)


def _learned_hosts(controller: Any) -> Tuple[HostView, ...]:
    return tuple(sorted(
        (HostView(ip=addr, dpid=dpid, port_no=port_no, mac=mac_addr)
         for addr, (dpid, port_no, mac_addr) in controller.hosts.items()),
        key=lambda h: h.ip))


def _controller_hosts(controller: Any) -> Tuple[HostView, ...]:
    """Delivery points the controller knows: learned hosts plus cluster
    attachments. The latter are configuration (they survive ``on_crash``,
    unlike the learned table), so a freshly reconciled redirect that
    outputs toward a cluster node is not misread as a blackhole just
    because no packet has re-taught the node's address yet."""
    hosts: Dict[Tuple[int, int], HostView] = {}
    for view in _learned_hosts(controller):
        hosts.setdefault((view.dpid, view.port_no), view)
    for _name, attachment in sorted(controller.cluster_attachments.items()):
        hosts.setdefault(
            (attachment.dpid, attachment.port_no),
            HostView(ip=attachment.ip, dpid=attachment.dpid,
                     port_no=attachment.port_no, mac=attachment.mac))
    return tuple(sorted(hosts.values(), key=lambda h: (h.dpid, h.port_no)))


def _fabric_adjacency(controller: Any) -> Tuple[LinkView, ...]:
    fabric = controller.cfg.fabric
    if fabric is None:
        return ()
    links = []
    for (dpid_a, dpid_b), port_a in sorted(fabric._ports.items()):
        port_b = fabric._ports[(dpid_b, dpid_a)]
        links.append(LinkView(dpid=dpid_a, port_no=port_a,
                              peer_dpid=dpid_b, peer_port=port_b))
    return tuple(links)


def snapshot_control_plane(manager: Any, controller: Any) -> NetworkSnapshot:
    """Snapshot from the controller's vantage point (learned hosts)."""
    switches = tuple(
        _switch_view(manager.datapaths[dpid].switch)
        for dpid in sorted(manager.datapaths))
    return NetworkSnapshot(
        switches=switches,
        adjacency=_fabric_adjacency(controller),
        hosts=_controller_hosts(controller),
        control=_control_view(controller, alive=manager.alive))


def snapshot_testbed(tb: Any) -> NetworkSnapshot:
    """Snapshot with ground-truth topology from the physical links."""
    from repro.netsim.host import Host
    from repro.openflow.switch import OpenFlowSwitch

    switches = tuple(
        _switch_view(tb.manager.datapaths[dpid].switch)
        for dpid in sorted(tb.manager.datapaths))
    known = {view.dpid for view in switches}

    hosts: Dict[Tuple[int, int], HostView] = {}
    adjacency: Dict[Tuple[int, int], LinkView] = {}
    for link in tb.net.links:
        ends = ((link.a, link.a_port, link.b, link.b_port),
                (link.b, link.b_port, link.a, link.a_port))
        for near, near_port, far, far_port in ends:
            if not isinstance(near, OpenFlowSwitch) or near.dpid not in known:
                continue
            if isinstance(far, Host):
                hosts[(near.dpid, near_port)] = HostView(
                    ip=far.ip, dpid=near.dpid, port_no=near_port, mac=far.mac)
            elif isinstance(far, OpenFlowSwitch) and far.dpid in known:
                adjacency[(near.dpid, near_port)] = LinkView(
                    dpid=near.dpid, port_no=near_port,
                    peer_dpid=far.dpid, peer_port=far_port)
    # Controller-known hosts the physical walk did not cover (e.g. static
    # cloud origins reachable through the egress port) still count as
    # delivery points.
    control = _control_view(tb.controller, alive=tb.manager.alive)
    for view in _controller_hosts(tb.controller):
        hosts.setdefault((view.dpid, view.port_no), view)
    return NetworkSnapshot(
        switches=switches,
        adjacency=tuple(adjacency[key] for key in sorted(adjacency)),
        hosts=tuple(sorted(hosts.values(), key=lambda h: (h.dpid, h.port_no))),
        control=control)

"""The Transparent-Edge SDN controller (Ryu application).

Implements the transparent-access data path of the paper:

* **Proxy-ARP** for the fabric's virtual gateway — every host's default
  gateway resolves to the controller-owned virtual MAC, so the ingress
  switch sees all off-subnet traffic;
* **Interception**: a table-miss TCP packet whose ``(ipv4_dst, tcp_dst)``
  matches a registered service triggers the Dispatcher (fig. 7);
* **Rewriting**: the chosen instance is wired in with a pair of OpenFlow
  set-field flows — upstream rewrites ``(dst IP, dst port, MACs)`` to the
  instance endpoint, downstream rewrites the source back to the original
  cloud address, so the redirection stays invisible to the client (fig. 2);
* **On-demand deployment**: when no instance runs in the chosen edge, the
  client's packet stays buffered at the switch while the deployment engine
  brings one up (*with waiting*, fig. 5), or the request is redirected to a
  farther instance while the optimal edge deploys in the background
  (*without waiting*, fig. 3);
* **Cloud fallback**: unregistered destinations — and registered services
  the scheduler sends cloudward — are routed toward the cloud uplink
  unchanged, exactly as the perceived-cloud model requires (fig. 1);
* **FlowMemory**: every installed redirection is memorized so switch idle
  timeouts can stay low, and idle instances are scaled down when the last
  memorized flow for them expires (§V).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.core.cookies import (
    KIND_MISS,
    KIND_ROUTE,
    KIND_SERVICE,
    cookie_kind,
    is_controller_cookie,
    make_cookie,
)
from repro.core.dispatcher import Dispatcher, DispatchResult
from repro.core.fabric import FabricTopology
from repro.core.flowmemory import FlowMemory, MemorizedFlow
from repro.core.registry import EdgeService, ServiceRegistry
from repro.core.serviceid import ServiceID
from repro.edge.cluster import EdgeCluster, Endpoint
from repro.netsim.addresses import MAC, IPv4
from repro.netsim.packet import ETH_TYPE_ARP, ETH_TYPE_IP, ArpOp, ArpPacket, EthernetFrame
from repro.openflow.actions import SetFieldAction
from repro.ryuapp import (
    DEAD_DISPATCHER,
    MAIN_DISPATCHER,
    EventOFPBarrierReply,
    EventOFPFlowRemoved,
    EventOFPFlowStatsReply,
    EventOFPPacketIn,
    EventOFPStateChange,
    RyuApp,
    set_ev_cls,
)
from repro.simcore.errors import ProcessKilled

if TYPE_CHECKING:  # pragma: no cover
    from repro.ryuapp.datapath import Datapath
    from repro.simcore import Process


@dataclass(frozen=True)
class AttachmentPoint:
    """Where a host or cluster node attaches to the switch fabric."""

    dpid: int
    port_no: int
    mac: MAC
    ip: IPv4


#: priority bands of redirection and plain L3 route flows
SERVICE_FLOW_PRIORITY = 20
ROUTE_FLOW_PRIORITY = 10


class Redirect(NamedTuple):
    """One live redirection in the controller's cookie ledger: every flow
    its install wired (all hops, both directions) carries the cookie it is
    filed under."""

    cluster: EdgeCluster
    #: None for a flow adopted on resync whose match names no client
    client: Optional[IPv4]
    service_id: ServiceID
    endpoint: Endpoint


@dataclass
class ControllerConfig:
    """Deploy-time configuration of the controller.

    Resilience knobs (see docs/faults.md) live elsewhere: the dispatcher's
    circuit breaker and the deployment engine's retry/deadline policy are
    configured on those objects directly
    (:class:`~repro.core.resilience.BreakerConfig`,
    :class:`~repro.core.resilience.RetryPolicy`).

    Failure accounting lands in :attr:`TransparentEdgeController.stats`
    (``dispatch_failures``, ``instances_evicted``) — a dispatch failure
    never drops the buffered packets; they are released toward the cloud
    origin instead.
    """

    #: the fabric's virtual gateway (every host's default gateway)
    vgw_ip: IPv4
    vgw_mac: MAC
    #: idle timeout of switch redirection flows — kept LOW thanks to FlowMemory
    switch_idle_timeout_s: float = 10.0
    #: idle timeout of plain L3 route flows
    route_idle_timeout_s: float = 30.0
    #: automatically scale down instances whose last memorized flow expired
    auto_scale_down: bool = True
    #: after an auto scale-down, Remove the service's containers/objects if
    #: it stayed unused this much longer (fig. 4's Remove phase; None: keep
    #: the created containers around for fast re-scale-ups)
    auto_remove_after_s: Optional[float] = None
    #: ablation switch: with False, re-misses always run the full dispatch
    use_flow_memory: bool = True
    #: inter-switch topology for multi-switch deployments (None: single
    #: switch, the fig. 8 testbed)
    fabric: Optional["FabricTopology"] = None
    #: statically known hosts (cloud servers, cluster nodes): ip -> attachment
    static_hosts: Dict[IPv4, AttachmentPoint] = field(default_factory=dict)


#: packet-ins held per datapath while its resync is in flight; beyond this
#: the oldest buffered packet-in is expired (the client retransmits)
RESYNC_BUFFER_CAPACITY = 128


@dataclass
class _ResyncState:
    """One datapath's in-flight flow-state reconciliation (docs/faults.md).

    Created when a MAIN state-change arrives for an already-known datapath
    (controller warm restart, channel revival); closed by the BarrierReply
    that trails the FlowStatsRequest. Packet-ins from the datapath are
    buffered here meanwhile and replayed once reconciliation is done, so
    redirection decisions never race the adopted flow state."""

    started_at: float
    buffered: Deque = field(default_factory=deque)
    dropped: int = 0
    flows_seen: int = 0
    reconciled: int = 0
    gcd: int = 0
    #: the FlowStatsReply was processed (a barrier without stats is stale)
    stats_done: bool = False


class TransparentEdgeController(RyuApp):
    """The controller application.

    Constructor config (via :meth:`AppManager.register` kwargs):

    * ``registry`` — :class:`ServiceRegistry`;
    * ``dispatcher`` — :class:`Dispatcher` (owns scheduler + engine);
    * ``memory`` — :class:`FlowMemory`;
    * ``config`` — :class:`ControllerConfig`;
    * ``cluster_attachments`` — cluster name → :class:`AttachmentPoint`.
    """

    def __init__(self, manager, **config):
        super().__init__(manager, **config)
        self.registry: ServiceRegistry = config["registry"]
        self.dispatcher: Dispatcher = config["dispatcher"]
        self.memory: FlowMemory = config["memory"]
        self.cfg: ControllerConfig = config["config"]
        self.cluster_attachments: Dict[str, AttachmentPoint] = config["cluster_attachments"]
        #: optional proactive deployer (repro.core.predictor) observing the
        #: request stream
        self.predeployer = config.get("predeployer")
        self.memory.on_idle = self._on_memory_idle
        #: learned host locations: ip -> (dpid, port_no, mac)
        self.hosts: Dict[IPv4, Tuple[int, int, MAC]] = {}
        for addr, attachment in self.cfg.static_hosts.items():
            self.hosts[addr] = (attachment.dpid, attachment.port_no, attachment.mac)
        #: pending dispatches: (client, service_id) -> buffered packet-ins
        self._pending: Dict[Tuple[IPv4, ServiceID], List] = {}
        #: the cookie ledger: cookie -> live redirection. Each record holds
        #: one count of its cluster's dispatcher load until :meth:`_release`
        #: (FlowRemoved, stale reclaim, :meth:`withdraw`) pops it.
        self._redirects: Dict[int, Redirect] = {}
        #: controller incarnation, embedded in every cookie; bumped on
        #: warm restart so pre-crash flows are recognizable on the wire
        self.epoch = 1
        self._next_plan_id = 1
        #: dpids that completed their first connect (a later MAIN
        #: state-change for them means reconnection -> resync)
        self._seen_dpids: Set[int] = set()
        #: in-flight dispatch processes, killed on crash
        self._dispatch_procs: Dict[Tuple[IPv4, ServiceID], "Process"] = {}
        #: per-dpid in-flight reconciliations + round bookkeeping
        self._resync: Dict[int, _ResyncState] = {}
        self._resync_round_dpids: Set[int] = set()
        self._resync_round_candidates: Set[int] = set()
        self._resync_seen_cookies: Set[int] = set()
        self._resync_round_aborted = False
        #: diagnostics
        self.stats = {
            "packet_ins": 0,
            "arp_proxied": 0,
            "service_hits_memory": 0,
            "service_dispatches": 0,
            "cloud_routed": 0,
            "l3_routed": 0,
            "dropped_unknown_dst": 0,
            "pending_coalesced": 0,
            "dispatch_failures": 0,
            "instances_evicted": 0,
            "packet_ins_buffered_resync": 0,
            "packet_ins_dropped_resync": 0,
            "flows_reconciled": 0,
            "flows_gcd": 0,
            "pending_lost_on_crash": 0,
        }

    def _alloc_cookie(self, kind: int) -> int:
        """A fresh cookie stamped with the current controller epoch."""
        cookie = make_cookie(self.epoch, kind, self._next_plan_id)
        self._next_plan_id += 1
        return cookie

    # ------------------------------------------------------------- datapaths

    @set_ev_cls(EventOFPStateChange, MAIN_DISPATCHER)
    def on_state_change(self, ev) -> None:
        datapath = ev.datapath
        if ev.state == DEAD_DISPATCHER:
            # Heartbeat declared the datapath unreachable: any resync in
            # flight toward it can never finish — abandon it.
            self._abort_resync(datapath.id)
            self.log("switch-dead", dpid=datapath.id)
            return
        if ev.state != MAIN_DISPATCHER:
            return
        # (Re-)install the table-miss entry (send to controller). Harmless
        # on reconnect: the switch kept its tables, the entry is refreshed.
        parser, ofp = datapath.ofproto_parser, datapath.ofproto
        datapath.send_msg(parser.OFPFlowMod(
            datapath, match=parser.OFPMatch(), priority=0,
            actions=[parser.OFPActionOutput(ofp.OFPP_CONTROLLER)],
            cookie=self._alloc_cookie(KIND_MISS)))
        if datapath.id in self._seen_dpids:
            # Not the first MAIN transition: we reconnected after a crash,
            # channel outage, or liveness revival. The switch kept forwarding
            # on its installed flows; reconcile before taking new decisions.
            self._start_resync(datapath)
        else:
            self._seen_dpids.add(datapath.id)
        self.log("switch-connected", dpid=datapath.id)

    # -------------------------------------------------------------- packet-in

    @set_ev_cls(EventOFPPacketIn, MAIN_DISPATCHER)
    def on_packet_in(self, ev) -> None:
        msg = ev.msg
        self.stats["packet_ins"] += 1
        state = self._resync.get(msg.datapath.id)
        if state is not None:
            # Reconciliation in flight for this datapath: hold the packet-in
            # until the adopted flow state is known, bounded so a miss storm
            # cannot pin unbounded memory (expired clients retransmit).
            if len(state.buffered) >= RESYNC_BUFFER_CAPACITY:
                state.buffered.popleft()
                state.dropped += 1
                self.stats["packet_ins_dropped_resync"] += 1
            state.buffered.append(msg)
            self.stats["packet_ins_buffered_resync"] += 1
            return
        self._process_packet_in(msg)

    def _process_packet_in(self, msg) -> None:
        frame: EthernetFrame = msg.frame
        datapath = msg.datapath
        self._learn(datapath.id, msg.in_port, frame)

        arp = frame.arp
        if arp is not None:
            self._handle_arp(datapath, msg, arp)
            return

        packet = frame.ipv4
        if packet is None:
            return  # non-IP, non-ARP: ignore

        fields = msg.fields
        dst_port = fields.get("tcp_dst")
        if dst_port is not None:
            service = self.registry.lookup_prefix(packet.dst, dst_port, "TCP")
            if service is not None:
                self._handle_service_packet(datapath, msg, service)
                return
        self._route_toward(datapath, msg, packet.dst)

    def service_decision(self, dst: IPv4, dst_port: int,
                         protocol: str = "TCP") -> Optional[EdgeService]:
        """Public probe of the packet-in service decision: the service a
        first packet to ``dst:dst_port`` belongs to, read from the live
        registry exactly as the data path reads it, so invariant checks can
        compare it against the registry under churn. Prefix-aware: an
        address inside a subnet-registered prefix resolves to that service
        (longest match wins). Nothing is cached: an exact registration is
        one dict probe, which is cheaper than keeping any cache in step
        with churn."""
        return self.registry.lookup_prefix(dst, dst_port, protocol)

    # ------------------------------------------------------------- learning

    def _learn(self, dpid: int, in_port: int, frame: EthernetFrame) -> None:
        fabric = self.cfg.fabric
        if fabric is not None and fabric.is_interswitch_port(dpid, in_port):
            return  # not a host-facing port: never a host location
        src_ip: Optional[IPv4] = None
        arp = frame.arp
        if arp is not None:
            src_ip = arp.sender_ip
        elif frame.ipv4 is not None:
            src_ip = frame.ipv4.src
        if src_ip is not None and not self.registry.is_registered_address(src_ip):
            self.hosts[src_ip] = (dpid, in_port, frame.src)

    # ------------------------------------------------------------------ ARP

    def _handle_arp(self, datapath: "Datapath", msg, arp: ArpPacket) -> None:
        if arp.op != ArpOp.REQUEST:
            return  # replies only interest the learning table (done above)
        parser = datapath.ofproto_parser
        target = arp.target_ip
        reply_mac: Optional[MAC] = None
        if target == self.cfg.vgw_ip or self.registry.is_registered_address(target):
            # The fabric answers for the gateway and for every registered
            # (perceived-cloud) service address.
            reply_mac = self.cfg.vgw_mac
        elif target in self.hosts:
            reply_mac = self.hosts[target][2]
        if reply_mac is None:
            # Unknown target: flood the request (normal L2 behaviour).
            datapath.send_msg(parser.OFPPacketOut(
                datapath, buffer_id=msg.buffer_id, in_port=msg.in_port,
                actions=[parser.OFPActionOutput(datapath.ofproto.OFPP_FLOOD)]))
            return
        self.stats["arp_proxied"] += 1
        reply = EthernetFrame(
            src=reply_mac, dst=arp.sender_mac, ethertype=ETH_TYPE_ARP,
            payload=ArpPacket(op=ArpOp.REPLY,
                              sender_mac=reply_mac, sender_ip=target,
                              target_mac=arp.sender_mac, target_ip=arp.sender_ip))
        datapath.send_msg(parser.OFPPacketOut(
            datapath, in_port=msg.in_port,
            actions=[parser.OFPActionOutput(msg.in_port)], data=reply))

    # --------------------------------------------------------- service path

    def _handle_service_packet(self, datapath: "Datapath", msg,
                               service: EdgeService) -> None:
        client = msg.frame.ipv4.src
        key = (client, service.service_id)
        if self.predeployer is not None:
            ready_now = any(cluster.is_ready(service.spec)
                            for cluster in self.dispatcher.clusters)
            self.predeployer.observe(client, service, ready_now)
        pending = self._pending.get(key)
        if pending is not None:
            # A dispatch for this client+service is already in flight
            # (e.g. a retransmitted SYN while deploying): hold this one too.
            pending.append((datapath, msg))
            self.stats["pending_coalesced"] += 1
            return

        remembered = (self.memory.lookup(client, service.service_id)
                      if self.cfg.use_flow_memory else None)
        if remembered is not None and remembered.cluster.is_ready(service.spec):
            # Fast re-miss path: switch flow idled out but FlowMemory knows
            # the decision — reinstall without dispatching (§V).
            self.stats["service_hits_memory"] += 1
            self._install_and_release(service, [(datapath, msg)],
                                      remembered.cluster, remembered.endpoint)
            return
        if remembered is not None:
            # Instance vanished (crashed, cluster outage, or scaled down
            # elsewhere): take down EVERY client's redirection to it — the
            # others would otherwise keep being switched into it until their
            # own idle timeout — then re-dispatch.
            endpoint = remembered.endpoint
            flows = self.withdraw(endpoint=endpoint)
            self.stats["instances_evicted"] += 1
            self.log("evicted-dead-instance", endpoint=str(endpoint),
                     cluster=remembered.cluster.name, flows=flows)

        self.stats["service_dispatches"] += 1
        self._pending[key] = [(datapath, msg)]
        self._dispatch_procs[key] = self.spawn(
            self._dispatch_and_install(client, service, key),
            name=("edge-dispatch", client, service.name))

    def _dispatch_and_install(self, client: IPv4, service: EdgeService, key):
        try:
            try:
                result: DispatchResult = yield self.dispatcher.dispatch(client, service)
            except ProcessKilled:
                # The hosting controller crashed mid-dispatch; the pending
                # packets were already accounted as lost by on_crash.
                raise
            except Exception as exc:  # noqa: BLE001 - unexpected dispatch error
                # Guaranteed disposition: buffered packets are NEVER dropped on
                # a failed dispatch — they continue toward the cloud origin,
                # which is where the client thinks it is talking to anyway.
                self.log("dispatch-failed", client=str(client),
                         service=service.name, error=repr(exc))
                self.stats["dispatch_failures"] += 1
                self._release_toward_cloud(self._pending.pop(key, []))
                return
            pending = self._pending.pop(key, [])
            if result.deploy_failed:
                self.stats["dispatch_failures"] += 1
            if result.toward_cloud:
                self._release_toward_cloud(pending)
                return
            if self.cfg.use_flow_memory:
                self.memory.remember(client, service.service_id,
                                     result.cluster, result.endpoint)
            self._install_and_release(service, pending, result.cluster, result.endpoint)
        finally:
            self._dispatch_procs.pop(key, None)

    def _release_toward_cloud(self, pending) -> None:
        """Send buffered packet-ins on toward their original (cloud) dst."""
        if not pending:
            return
        self.stats["cloud_routed"] += 1
        for datapath, msg in pending:
            self._route_toward(datapath, msg, msg.frame.ipv4.dst)

    def _install_and_release(self, service: EdgeService, pending,
                             cluster: EdgeCluster, endpoint: Endpoint) -> None:
        """Wire client ⇄ ``endpoint`` on every switch of the path and release
        the buffered packet-ins through it, in one pass: each hop's matches
        and action lists are built right before its FlowMods are sent."""
        if not pending:
            return
        datapath, first_msg = pending[0]
        packet = first_msg.frame.ipv4
        client, dst_addr = packet.src, packet.dst
        client_loc = self.hosts.get(client)
        attachment = self.cluster_attachments.get(cluster.name)
        if client_loc is None or attachment is None:
            # Cannot wire the redirection — degrade to the cloud path rather
            # than silently dropping the buffered packets.
            self.log("missing-topology-info", client=str(client),
                     cluster=cluster.name)
            self.stats["dispatch_failures"] += 1
            self._release_toward_cloud(pending)
            return
        client_dpid, client_port, client_mac = client_loc

        # The dpid path from the client's ingress switch to the switch in
        # front of the instance (a single element for the fig. 8 testbed).
        fabric = self.cfg.fabric
        if fabric is not None and client_dpid != attachment.dpid:
            path = fabric.path(client_dpid, attachment.dpid)
        else:
            path = [client_dpid]
        last = len(path) - 1

        parser, ofp = datapath.ofproto_parser, datapath.ofproto
        port = service.service_id.port
        # Match/rewrite on the address the client actually addressed: for a
        # host-registered service that IS service_id.addr; for a
        # subnet-registered service it is some address inside the prefix.
        upstream_match = parser.OFPMatch(
            eth_type=ETH_TYPE_IP, ip_proto=6,
            ipv4_src=client, ipv4_dst=dst_addr, tcp_dst=port)
        downstream_match = parser.OFPMatch(
            eth_type=ETH_TYPE_IP, ip_proto=6,
            ipv4_src=endpoint.ip, tcp_src=endpoint.port, ipv4_dst=client)
        # After the ingress rewrite, upstream packets carry the endpoint
        # address — transit/egress switches match on that.
        rewritten_match = parser.OFPMatch(
            eth_type=ETH_TYPE_IP, ip_proto=6,
            ipv4_src=client, ipv4_dst=endpoint.ip,
            tcp_dst=endpoint.port) if last else None

        cookie = self._alloc_cookie(KIND_SERVICE)
        # Load accounting is keyed to the cookie ledger: EVERY record counts
        # one installed redirection (re-miss reinstalls included — their
        # removal decrements, so skipping the increment here would steal a
        # count from the cluster), and `_release` gives it back once.
        self._redirects[cookie] = Redirect(cluster, client, service.service_id,
                                           endpoint)
        self.dispatcher.note_flow_installed(cluster)

        vgw_mac = self.cfg.vgw_mac
        idle_timeout = self.cfg.switch_idle_timeout_s
        datapaths = self.manager.datapaths
        #: dpid -> upstream action list used to release buffered packets
        release_actions: Dict[int, list] = {}
        # Install farthest-first and downstream-before-upstream: every
        # control channel has the same latency, so by the time the released
        # packet reaches any switch its rules are already there.
        for index in range(last, -1, -1):
            dpid = path[index]
            hop_dp = datapaths.get(dpid)
            if hop_dp is None:
                # A switch on the chosen path is gone (e.g. mid-outage):
                # abandon the redirection, release the packets cloudward.
                # Flows already sent to other hops idle out on their own.
                self.log("missing-datapath", dpid=dpid)
                self.stats["dispatch_failures"] += 1
                self._release(cookie)
                self._release_toward_cloud(pending)
                return
            if index:
                down_actions = [parser.OFPActionOutput(
                    fabric.port_toward(dpid, path[index - 1]))]
                up_match, up_actions, flags = rewritten_match, [], 0
            else:
                down_actions = [
                    parser.OFPActionSetField(ipv4_src=dst_addr),
                    parser.OFPActionSetField(tcp_src=port),
                    parser.OFPActionSetField(eth_src=vgw_mac),
                    parser.OFPActionSetField(eth_dst=client_mac),
                    parser.OFPActionOutput(client_port),
                ]
                up_match, flags = upstream_match, ofp.OFPFF_SEND_FLOW_REM
                up_actions = [
                    parser.OFPActionSetField(ipv4_dst=endpoint.ip),
                    parser.OFPActionSetField(tcp_dst=endpoint.port),
                ]
            if index == last:
                up_actions += [
                    parser.OFPActionSetField(eth_src=vgw_mac),
                    parser.OFPActionSetField(eth_dst=attachment.mac),
                    parser.OFPActionOutput(attachment.port_no),
                ]
            else:
                up_actions.append(parser.OFPActionOutput(
                    fabric.port_toward(dpid, path[index + 1])))
            hop_dp.send_msg(parser.OFPFlowMod(
                hop_dp, match=downstream_match, actions=down_actions,
                priority=SERVICE_FLOW_PRIORITY,
                idle_timeout=idle_timeout, cookie=cookie))
            hop_dp.send_msg(parser.OFPFlowMod(
                hop_dp, match=up_match, actions=up_actions,
                priority=SERVICE_FLOW_PRIORITY,
                idle_timeout=idle_timeout, cookie=cookie, flags=flags))
            release_actions[dpid] = up_actions

        # Release every buffered packet through its switch's upstream rules.
        for release_dp, release_msg in pending:
            actions = release_actions.get(release_dp.id)
            if actions is None:
                continue  # buffered at a switch off the chosen path
            release_dp.send_msg(parser.OFPPacketOut(
                release_dp, buffer_id=release_msg.buffer_id,
                in_port=release_msg.in_port, actions=actions,
                data=release_msg.frame if release_msg.buffer_id == ofp.OFP_NO_BUFFER else None))
        if self.sim.trace.enabled:
            # Guarded: str(client)/str(endpoint) formatting is pure waste
            # when tracing is off, and this runs once per packet-in.
            self.log("flows-installed", client=str(client), service=service.name,
                     endpoint=str(endpoint), cluster=cluster.name,
                     hops=len(path))

    # -------------------------------------------------------------- teardown

    def withdraw(self, *, client: Optional[IPv4] = None,
                 service_id: Optional[ServiceID] = None,
                 cluster: Optional[EdgeCluster] = None,
                 endpoint: Optional[Endpoint] = None) -> int:
        """Take down every redirection matching all the given fields: the
        one teardown behind dead-instance eviction, handover, deregister and
        drain. ``cluster`` is compared by identity.

        Forgets the matching FlowMemory decisions, deletes each matching
        ledger record's flows — every hop, both directions — by its cookie
        on every datapath, and releases its load at once, so the switches'
        later FlowRemoved finds nothing left to release. Returns the number
        of memorized decisions forgotten."""
        if client is None and service_id is None and cluster is None and endpoint is None:
            raise ValueError("withdraw needs at least one selector")
        forgotten = self.memory.matching(client=client, service_id=service_id,
                                         cluster=cluster, endpoint=endpoint)
        for flow in forgotten:
            self.memory.forget(flow.client, flow.service_id)
        cookies = sorted(
            cookie for cookie, record in self._redirects.items()
            if (client is None or record.client == client)
            and (service_id is None or record.service_id == service_id)
            and (cluster is None or record.cluster is cluster)
            and (endpoint is None or record.endpoint == endpoint))
        for datapath in self.manager.datapaths.values():
            parser, ofp = datapath.ofproto_parser, datapath.ofproto
            for cookie in cookies:
                datapath.send_msg(parser.OFPFlowMod(
                    datapath, match=parser.OFPMatch(),
                    command=ofp.OFPFC_DELETE, cookie=cookie))
        for cookie in cookies:
            self._release(cookie)
        return len(forgotten)

    def _release(self, cookie: int) -> None:
        """Pop one redirection off the ledger and give its cluster's load
        back — the only load-release path, and a no-op for a cookie that is
        not (or no longer) filed."""
        record = self._redirects.pop(cookie, None)
        if record is not None:
            self.dispatcher.note_flow_removed(record.cluster)

    # --------------------------------------------------------- plain routing

    def _route_toward(self, datapath: "Datapath", msg, dst: IPv4) -> None:
        location = self.hosts.get(dst)
        parser = datapath.ofproto_parser
        if location is None:
            self.stats["dropped_unknown_dst"] += 1
            self.log("unknown-destination", dst=str(dst))
            return
        dst_dpid, dst_port, dst_mac = location
        self.stats["l3_routed"] += 1
        fabric = self.cfg.fabric
        if fabric is not None and datapath.id != dst_dpid:
            path = fabric.path(datapath.id, dst_dpid)
        else:
            path = [datapath.id]
        match = parser.OFPMatch(eth_type=ETH_TYPE_IP, ipv4_dst=dst)
        first_hop_actions = None
        for index, dpid in enumerate(path):
            hop_dp = self.manager.datapaths.get(dpid)
            if hop_dp is None:
                return
            if index + 1 < len(path):
                actions = [parser.OFPActionOutput(
                    fabric.port_toward(dpid, path[index + 1]))]
            else:
                actions = [
                    parser.OFPActionSetField(eth_src=self.cfg.vgw_mac),
                    parser.OFPActionSetField(eth_dst=dst_mac),
                    parser.OFPActionOutput(dst_port),
                ]
            hop_dp.send_msg(parser.OFPFlowMod(
                hop_dp, match=match, actions=actions,
                priority=ROUTE_FLOW_PRIORITY,
                idle_timeout=self.cfg.route_idle_timeout_s,
                cookie=make_cookie(self.epoch, KIND_ROUTE, 0)))
            if index == 0:
                first_hop_actions = actions
        datapath.send_msg(parser.OFPPacketOut(
            datapath, buffer_id=msg.buffer_id, in_port=msg.in_port,
            actions=list(first_hop_actions or []),
            data=msg.frame if msg.buffer_id == datapath.ofproto.OFP_NO_BUFFER else None))

    # ----------------------------------------------------------- flow events

    @set_ev_cls(EventOFPFlowRemoved, MAIN_DISPATCHER)
    def on_flow_removed(self, ev) -> None:
        self._release(ev.msg.cookie)

    # ------------------------------------------------- crash / warm restart

    def on_crash(self) -> None:
        """Drop ALL volatile state (docs/faults.md): a warm-restarted
        controller remembers nothing and must reconcile from the switches.
        Buffered packet-ins die with the process — the accounting survives
        in :attr:`stats` because the experiment driver owns this object."""
        for proc in list(self._dispatch_procs.values()):
            if proc.alive:
                proc.kill("controller crashed")
        self._dispatch_procs.clear()
        lost = sum(len(msgs) for msgs in self._pending.values())
        self.stats["pending_lost_on_crash"] += lost
        self._pending.clear()
        self.memory.clear()
        self.hosts.clear()
        for addr, attachment in self.cfg.static_hosts.items():
            self.hosts[addr] = (attachment.dpid, attachment.port_no,
                                attachment.mac)
        self._redirects.clear()
        for cluster in self.dispatcher.clusters:
            self.dispatcher.load[cluster.name] = 0
        for dpid in list(self._resync):
            self._abort_resync(dpid)
        self._resync_round_dpids.clear()
        self._resync_round_candidates.clear()
        self._resync_seen_cookies.clear()
        self._resync_round_aborted = False
        self.log("crash", pending_lost=lost)

    def on_restart(self) -> None:
        """New incarnation: cookies minted from here on carry the new epoch,
        so reconciliation can tell adopted pre-crash flows apart."""
        self.epoch += 1
        self._next_plan_id = 1
        self.log("restart", epoch=self.epoch)

    # ------------------------------------------------ flow-state resync

    def _start_resync(self, datapath: "Datapath") -> None:
        """Snapshot the datapath's flow table and reconcile against it.

        A *round* is the set of resyncs started while none was in flight;
        stale-cookie reclaim only runs when a round covered every datapath
        and none was aborted — otherwise a flow on an unreachable switch
        would be misjudged as gone."""
        old = self._resync.pop(datapath.id, None)
        if old is not None:
            # Restarted before the previous resync finished: its buffered
            # packet-ins refer to pre-restart state — expire them.
            self.stats["packet_ins_dropped_resync"] += len(old.buffered)
        if not self._resync:
            self._resync_round_dpids = set()
            self._resync_round_aborted = False
            self._resync_round_candidates = set(self._redirects)
            self._resync_seen_cookies = set()
        self._resync_round_dpids.add(datapath.id)
        self._resync[datapath.id] = _ResyncState(started_at=self.sim.now)
        parser = datapath.ofproto_parser
        datapath.send_msg(parser.OFPFlowStatsRequest(datapath,
                                                     match=parser.OFPMatch()))
        # The channel is FIFO, so the barrier reply trails the stats reply:
        # when it arrives, reconciliation (including GC deletes sent from
        # the stats handler) is ordered before any replayed packet-in.
        datapath.send_msg(parser.OFPBarrierRequest(datapath))
        self.log("resync-start", dpid=datapath.id)

    def _abort_resync(self, dpid: int) -> None:
        state = self._resync.pop(dpid, None)
        if state is None:
            return
        self.stats["packet_ins_dropped_resync"] += len(state.buffered)
        self._resync_round_aborted = True
        self.log("resync-aborted", dpid=dpid)

    @set_ev_cls(EventOFPFlowStatsReply, MAIN_DISPATCHER)
    def on_flow_stats_reply(self, ev) -> None:
        datapath = ev.msg.datapath
        state = self._resync.get(datapath.id)
        if state is None or state.stats_done:
            return  # unsolicited or duplicate snapshot
        state.stats_done = True
        self._reconcile(datapath, ev.msg.stats, state)

    @set_ev_cls(EventOFPBarrierReply, MAIN_DISPATCHER)
    def on_barrier_reply(self, ev) -> None:
        datapath = ev.msg.datapath
        state = self._resync.pop(datapath.id, None)
        if state is None:
            return
        self.manager.recovery.record_resync(
            dpid=datapath.id, epoch=self.epoch,
            started_at=state.started_at, finished_at=self.sim.now,
            flows_seen=state.flows_seen, flows_reconciled=state.reconciled,
            flows_gcd=state.gcd, packet_ins_buffered=len(state.buffered),
            packet_ins_dropped=state.dropped)
        self.stats["flows_reconciled"] += state.reconciled
        self.stats["flows_gcd"] += state.gcd
        if not self._resync:
            # Round complete. Reclaim bookkeeping for cookies no switch
            # reported — their flows are gone (expired during the outage) —
            # but only from a full, unaborted round.
            if (not self._resync_round_aborted
                    and self._resync_round_dpids == set(self.manager.datapaths)):
                self._reclaim_stale_cookies()
            self._resync_round_dpids = set()
            self._resync_round_candidates = set()
            self._resync_seen_cookies = set()
            self._resync_round_aborted = False
        self.log("resync-done", dpid=datapath.id, seen=state.flows_seen,
                 reconciled=state.reconciled, gcd=state.gcd,
                 replayed=len(state.buffered), dropped=state.dropped)
        while state.buffered:
            self._process_packet_in(state.buffered.popleft())

    def _reclaim_stale_cookies(self) -> None:
        stale = sorted(cookie for cookie in self._resync_round_candidates
                       if cookie in self._redirects
                       and cookie not in self._resync_seen_cookies)
        for cookie in stale:
            self._release(cookie)
        if stale:
            self.log("reclaimed-stale-cookies", count=len(stale))

    def _live_endpoints(self) -> Dict[Endpoint, Tuple[EdgeCluster, EdgeService]]:
        """Every currently-servable instance endpoint across all clusters."""
        live: Dict[Endpoint, Tuple[EdgeCluster, EdgeService]] = {}
        for service in self.registry.services():
            for cluster in self.dispatcher.clusters:
                if not cluster.is_ready(service.spec):
                    continue
                endpoint = cluster.endpoint(service.spec)
                if endpoint is not None:
                    live[endpoint] = (cluster, service)
        return live

    def _reconcile(self, datapath: "Datapath", stats: List[Dict],
                   state: _ResyncState) -> None:
        """Adopt or GC every controller-stamped flow in the snapshot.

        Adopt: the flow redirects to an instance that is still live —
        FlowMemory and load bookkeeping are rebuilt from it, so established
        clients keep their pre-crash instance without a new dispatch.
        GC: the instance is dead or the flow is unrecognizable — strict
        delete (cookie-filtered, so a same-match current-epoch replacement
        is never collateral damage)."""
        state.flows_seen = len(stats)
        parser, ofp = datapath.ofproto_parser, datapath.ofproto
        live = self._live_endpoints()
        for stat in stats:
            cookie = stat.get("cookie", 0)
            if not is_controller_cookie(cookie):
                continue  # not ours (pre-cookie tooling, test fixtures)
            kind = cookie_kind(cookie)
            if kind != KIND_SERVICE:
                continue  # table-miss / route flows carry no instance state
            verdict = self._classify_service_flow(stat["match"],
                                                  stat.get("actions", []), live)
            if verdict is None:
                datapath.send_msg(parser.OFPFlowMod(
                    datapath, match=stat["match"],
                    command=ofp.OFPFC_DELETE_STRICT,
                    priority=stat["priority"], cookie=cookie))
                state.gcd += 1
                continue
            first_hop, client, service, cluster, endpoint = verdict
            if first_hop:
                self._resync_seen_cookies.add(cookie)
            if cookie not in self._redirects:
                self._redirects[cookie] = Redirect(cluster, client,
                                                   service.service_id, endpoint)
                self.dispatcher.note_flow_installed(cluster)
            if (self.cfg.use_flow_memory and client is not None
                    and self.memory.peek(client, service.service_id) is None):
                self.memory.remember(client, service.service_id,
                                     cluster, endpoint)
            state.reconciled += 1

    def _classify_service_flow(self, match, actions, live):
        """Recognize one of the three flow shapes `_install_and_release`
        wires and check its instance is still live. Returns ``(first_hop,
        client, service, cluster, endpoint)`` or None (-> GC)."""
        src = match.exact_value("ipv4_src")
        dst = match.exact_value("ipv4_dst")
        tcp_dst = match.exact_value("tcp_dst")
        tcp_src = match.exact_value("tcp_src")
        if dst is not None and tcp_dst is not None:
            # Prefix-aware: a first-hop flow for a subnet-registered service
            # matches a covered address, not the registration network.
            service = self.registry.lookup_prefix(dst, tcp_dst)
            if service is not None:
                # First-hop upstream: matches the service address, rewrites
                # to the instance endpoint in its set-field actions.
                endpoint = self._endpoint_from_actions(actions)
                if endpoint is None or endpoint not in live:
                    return None
                cluster, live_service = live[endpoint]
                if live_service.service_id != service.service_id:
                    return None  # endpoint now serves a different service
                return (True, src, service, cluster, endpoint)
            candidate = Endpoint(ip=dst, port=tcp_dst)
            if candidate in live:
                # Transit/egress upstream: matches the rewritten endpoint.
                cluster, service = live[candidate]
                return (False, src, service, cluster, candidate)
            return None
        if src is not None and tcp_src is not None:
            candidate = Endpoint(ip=src, port=tcp_src)
            if candidate in live:
                # Downstream: source is the instance endpoint.
                cluster, service = live[candidate]
                return (False, dst, service, cluster, candidate)
        return None

    def audit_stale_service_flows(self) -> int:
        """Count installed service flows that redirect to an endpoint that
        is no longer live. The reconciliation invariant (docs/faults.md):
        after a completed resync round this is 0 — no client is being
        switched into a dead instance."""
        live = self._live_endpoints()
        stale = 0
        for datapath in self.manager.datapaths.values():
            for stat in datapath.switch.table.stats():
                cookie = stat.get("cookie", 0)
                if (not is_controller_cookie(cookie)
                        or cookie_kind(cookie) != KIND_SERVICE):
                    continue
                if self._classify_service_flow(stat["match"],
                                               stat.get("actions", []),
                                               live) is None:
                    stale += 1
        return stale

    @staticmethod
    def _endpoint_from_actions(actions) -> Optional[Endpoint]:
        """The (ipv4_dst, tcp_dst) rewrite target of a first-hop upstream
        flow's action list, if both set-fields are present."""
        ip = port = None
        for action in actions:
            if isinstance(action, SetFieldAction):
                if action.field == "ipv4_dst":
                    ip = action.value
                elif action.field == "tcp_dst":
                    port = action.value
        if ip is None or port is None:
            return None
        return Endpoint(ip=ip, port=port)

    # -------------------------------------------------------- idle scaledown

    def _on_memory_idle(self, flow: MemorizedFlow, still_referenced: bool) -> None:
        if still_referenced or not self.cfg.auto_scale_down:
            return
        service = self.registry.lookup(flow.service_id.addr, flow.service_id.port,
                                       flow.service_id.protocol)
        if service is None:
            return
        self.log("auto-scale-down", service=service.name, cluster=flow.cluster.name)
        self.dispatcher.engine.scale_down(flow.cluster, service)
        if self.cfg.auto_remove_after_s is not None:
            self.sim.schedule(self.cfg.auto_remove_after_s,
                              self._auto_remove_check, flow.cluster, service)

    def _auto_remove_check(self, cluster: EdgeCluster, service: EdgeService) -> None:
        """Remove the (stopped) containers/objects of a service that stayed
        unused through the grace period (fig. 4's Remove phase)."""
        if self.memory.matching(service_id=service.service_id):
            return  # came back into use
        if cluster.is_ready(service.spec):
            return  # re-deployed meanwhile
        if not cluster.is_created(service.spec):
            return  # already gone
        if self.registry.lookup(service.service_id.addr, service.service_id.port,
                                service.service_id.protocol) is None:
            return  # deregistered; EdgeAdmin owns the cleanup
        self.log("auto-remove", service=service.name, cluster=cluster.name)
        self.dispatcher.engine.remove(cluster, service)

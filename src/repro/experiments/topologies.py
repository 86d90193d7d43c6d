"""Canonical testbed builders — the fig. 8 topology in code.

The evaluation topology: 20 Raspberry-Pi clients on 1 Gbps links, one
virtual OVS switch, and the Edge Gateway Server (EGS) hosting the SDN
controller, a Docker "cluster" and a Kubernetes cluster (both over a shared
containerd), plus a high-RTT uplink toward the cloud where the registered
services' origins (and the public registries) live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import (
    AttachmentPoint,
    BreakerConfig,
    ControllerConfig,
    DeploymentEngine,
    Dispatcher,
    FlowMemory,
    ProximityScheduler,
    RetryPolicy,
    ServiceID,
    ServiceRegistry,
    TransparentEdgeController,
    ZoneMap,
)
from repro.core.annotate import AnnotationConfig
from repro.core.fabric import FabricTopology
from repro.core.registry import EdgeService
from repro.edge import (
    Containerd,
    DockerCluster,
    DockerEngine,
    EdgeCluster,
    KubernetesCluster,
    KubernetesEdgeCluster,
    Registry,
    RegistryHub,
)
from repro.edge.registry import DOCKER_HUB_TIMING, GCR_TIMING, PRIVATE_LAN_TIMING
from repro.edge.services import EDGE_SERVICE_CATALOG, all_catalog_images
from repro.netsim import Network
from repro.netsim.addresses import IPv4, ip, mac
from repro.netsim.host import Host
from repro.openflow import ControlChannel, OpenFlowSwitch
from repro.ryuapp import AppManager
from repro.simcore import Simulator, TraceLog
from repro.workloads.clients import RequestTiming, TimedHTTPClient

VGW_IP = ip("10.255.255.254")
VGW_MAC = mac("02:ed:9e:00:00:01")

#: service addresses live in TEST-NET-2 (the "perceived cloud")
SERVICE_NET = ip("198.51.100.0")


@dataclass
class Testbed:
    """Everything an experiment needs, assembled."""

    net: Network
    switch: OpenFlowSwitch
    manager: AppManager
    controller: TransparentEdgeController
    registry: ServiceRegistry
    dispatcher: Dispatcher
    engine: DeploymentEngine
    memory: FlowMemory
    zones: ZoneMap
    hub: RegistryHub
    private_registry: Registry
    clusters: Dict[str, EdgeCluster]
    egs: Host
    clients: List[Host]
    timed_clients: List[TimedHTTPClient]
    cloud_hosts: Dict[IPv4, Host]
    #: a multi-switch fabric's access switches (``switch`` is its core)
    access_switches: List[OpenFlowSwitch] = field(default_factory=list)
    fabric: Optional[FabricTopology] = None
    _next_service_suffix: int = 0

    @property
    def sim(self):
        return self.net.sim

    def run(self, until: Optional[float] = None) -> float:
        return self.net.run(until)

    # ------------------------------------------------------------- services

    def alloc_service_id(self, port: int = 80) -> ServiceID:
        self._next_service_suffix += 1
        return ServiceID(IPv4(SERVICE_NET.value + self._next_service_suffix), port)

    def register_catalog_service(self, key: str,
                                 service_id: Optional[ServiceID] = None,
                                 max_initial_delay_s: Optional[float] = None,
                                 with_cloud_origin: bool = False) -> EdgeService:
        """Register one of the Table-I services with the platform."""
        entry = EDGE_SERVICE_CATALOG[key]
        behavior = entry.serving_behavior
        if service_id is None:
            service_id = self.alloc_service_id(port=behavior.port)
        import yaml as _yaml

        containers = []
        for image, beh in zip(entry.images, entry.behaviors, strict=True):
            container = {"name": beh.name, "image": str(image.ref)}
            if beh.port is not None:
                container["ports"] = [{"containerPort": beh.port}]
            containers.append(container)
        doc = {
            "apiVersion": "apps/v1",
            "kind": "Deployment",
            "spec": {"template": {"spec": {"containers": containers}}},
        }
        service = self.registry.register(
            service_id, yaml_text=_yaml.safe_dump(doc, sort_keys=False),
            max_initial_delay_s=max_initial_delay_s)
        # Serverless clusters serve the same registered address via a WASM
        # function equivalent (side-by-side operation, paper §VIII).
        for cluster in self.clusters.values():
            if cluster.cluster_type == "serverless":
                from repro.edge.serverless import wasm_function_for_catalog

                cluster.register_function(service.name,
                                          wasm_function_for_catalog(key))
        if with_cloud_origin:
            self.add_cloud_origin(service_id, behavior)
        return service

    def add_cloud_origin(self, service_id: ServiceID, behavior) -> Host:
        """Create the cloud host that actually owns the service address."""
        host = self.cloud_hosts.get(service_id.addr)
        if host is None:
            host = self.net.add_host(f"cloud-{service_id.addr}",
                                     ip_addr=service_id.addr,
                                     gateway=VGW_IP, prefix_len=32)
            port_no = max(self.switch.port_numbers, default=0) + 1
            self.net.connect(host, 0, self.switch, port_no,
                             latency_s=self._cloud_latency_s, bandwidth_bps=1e9)
            self.controller.cfg.static_hosts[service_id.addr] = AttachmentPoint(
                dpid=self.switch.dpid, port_no=port_no, mac=host.mac, ip=host.ip)
            self.controller.hosts[service_id.addr] = (
                self.switch.dpid, port_no, host.mac)
            self.cloud_hosts[service_id.addr] = host
        if not host.listening_on(service_id.port):
            host.listen(service_id.port, behavior.make_listener(self.sim))
        return host

    _cloud_latency_s: float = 0.0125

    # -------------------------------------------------------------- clients

    def client(self, index: int = 0) -> TimedHTTPClient:
        return self.timed_clients[index]

    def move_client(self, index: int, new_zone: str) -> int:
        """Follow-me handover: relocate a client to ``new_zone``."""
        from repro.core.mobility import MobilityManager

        manager = MobilityManager(self.controller)
        return manager.handover(self.clients[index].ip, new_zone)

    def attach_predeployer(self, lead_time_s: float = 1.0,
                           min_gap_s: float = 2.0):
        """Enable proactive deployment on the running controller."""
        from repro.core.predictor import ProactiveDeployer

        deployer = ProactiveDeployer(self.sim, self.dispatcher,
                                     lead_time_s=lead_time_s,
                                     min_gap_s=min_gap_s)
        self.controller.predeployer = deployer
        return deployer


def request_service(tb: Testbed, svc: EdgeService, client_index: int = 0,
                    window_s: float = 30.0) -> RequestTiming:
    """Issue one timed request and advance the simulation by a bounded
    window (so idle timers don't all expire); returns its timing."""
    request = tb.client(client_index).fetch(svc.service_id.addr,
                                            svc.service_id.port)
    tb.run(until=tb.sim.now + window_s)
    assert request.done, "request did not finish in window"
    timing = request.result
    assert timing.ok, f"request failed: {timing.error}"
    return timing


def add_docker_cluster(
    testbed: Testbed,
    name: str,
    zone: str,
    link_latency_s: float = 0.002,
    access_rtt_s: Optional[float] = None,
) -> "DockerCluster":
    """Attach an additional Docker edge cluster (own node) to the testbed.

    Used for multi-edge topologies: scheduler ablations, follow-me
    handovers, and the hierarchical-edge experiments.
    """
    from repro.core.controller import AttachmentPoint

    node = testbed.net.add_host(f"egs-{name}", gateway=VGW_IP, prefix_len=32)
    port_no = max(testbed.switch.port_numbers) + 1
    testbed.net.connect(node, 0, testbed.switch, port_no,
                        latency_s=link_latency_s, bandwidth_bps=10e9)
    runtime = Containerd(testbed.sim, node, testbed.hub)
    cluster = DockerCluster(testbed.sim, name, DockerEngine(testbed.sim, runtime),
                            zone=zone)
    if access_rtt_s is not None:
        testbed.zones.set_rtt("access", zone, access_rtt_s)
    testbed.clusters[cluster.name] = cluster
    testbed.dispatcher.clusters.append(cluster)
    testbed.controller.cluster_attachments[cluster.name] = AttachmentPoint(
        dpid=testbed.switch.dpid, port_no=port_no, mac=node.mac, ip=node.ip)
    return cluster


def _image_hub(use_private_registry: bool = False) -> Tuple[RegistryHub, Registry]:
    """The public registries holding every catalog image, plus the private
    LAN registry (the hub's mirror only when ``use_private_registry``)."""
    docker_hub = Registry("docker-hub", DOCKER_HUB_TIMING)
    gcr = Registry("gcr.io", GCR_TIMING)
    private = Registry("private-lan", PRIVATE_LAN_TIMING)
    for image in all_catalog_images():
        target = gcr if image.ref.registry == "gcr.io" else docker_hub
        target.push(image)
        private.push(image)
    hub = RegistryHub(docker_hub)
    hub.add("gcr.io", gcr)
    if use_private_registry:
        hub.set_mirror(private)
    return hub, private


def _edge_clusters(
    sim: Simulator,
    cluster_types: Tuple[str, ...],
    place: Callable[[str], Tuple[Host, AttachmentPoint, Containerd]],
    private: Registry,
    control_latency_s: float,
) -> Tuple[Dict[str, EdgeCluster], Dict[str, AttachmentPoint]]:
    """One edge cluster per entry of ``cluster_types``, each on the
    ``(node, attachment, runtime)`` that ``place`` gives its type:
    ``(clusters, cluster_attachments)`` by name."""
    clusters: Dict[str, EdgeCluster] = {}
    cluster_attachments: Dict[str, AttachmentPoint] = {}
    for cluster_type in cluster_types:
        node, attachment, runtime = place(cluster_type)
        if cluster_type == "docker":
            engine = DockerEngine(sim, runtime)
            cluster: EdgeCluster = DockerCluster(sim, "docker-egs", engine, zone="edge")
        elif cluster_type == "kubernetes":
            k8s = KubernetesCluster(sim)
            k8s.add_node(runtime)
            cluster = KubernetesEdgeCluster(sim, "k8s-egs", k8s, node, runtime, zone="edge")
        elif cluster_type == "serverless":
            from repro.edge.serverless import ServerlessCluster, WasmRuntime

            wasm = WasmRuntime(sim, node, module_registry=private)
            cluster = ServerlessCluster(sim, "wasm-egs", wasm, functions={},
                                        zone="edge")
        else:
            raise ValueError(f"unknown cluster type {cluster_type!r}")
        cluster.probe_rtt_s = 2 * control_latency_s
        clusters[cluster.name] = cluster
        cluster_attachments[cluster.name] = attachment
    return clusters, cluster_attachments


def _controlled_testbed(
    net: Network,
    switches: List[OpenFlowSwitch],
    zones: ZoneMap,
    hub: RegistryHub,
    private: Registry,
    clusters: Dict[str, EdgeCluster],
    cluster_attachments: Dict[str, AttachmentPoint],
    egs: Host,
    clients: List[Host],
    config: ControllerConfig,
    *,
    control_latency_s: float,
    memory_idle_timeout_s: float,
    scheduler_name: Optional[str] = None,
    retry_policy: Optional[RetryPolicy] = None,
    breaker_config: Optional[BreakerConfig] = None,
    use_breaker: bool = True,
) -> Testbed:
    """Assemble the control plane over a wired topology, give every switch
    its own control channel, and let them connect.

    ``switches[0]`` becomes ``Testbed.switch`` (the one the EGS hangs off);
    the rest are the fabric's access switches.
    """
    sim = net.sim
    registry = ServiceRegistry(AnnotationConfig(scheduler_name=scheduler_name))
    engine = DeploymentEngine(sim, policy=retry_policy)
    memory = FlowMemory(sim, idle_timeout_s=memory_idle_timeout_s)
    dispatcher = Dispatcher(sim, list(clusters.values()), ProximityScheduler(zones), engine,
                            memory, zones=zones,
                            breaker_config=breaker_config,
                            use_breaker=use_breaker)
    manager = AppManager(sim)
    controller = manager.register(
        TransparentEdgeController,
        registry=registry, dispatcher=dispatcher, memory=memory,
        config=config, cluster_attachments=cluster_attachments)
    for switch in switches:
        manager.connect_switch(switch, ControlChannel(sim, latency_s=control_latency_s))

    testbed = Testbed(
        net=net, switch=switches[0], manager=manager, controller=controller,
        registry=registry, dispatcher=dispatcher, engine=engine, memory=memory,
        zones=zones, hub=hub, private_registry=private, clusters=clusters,
        egs=egs, clients=clients,
        timed_clients=[TimedHTTPClient(c) for c in clients],
        cloud_hosts={}, access_switches=switches[1:], fabric=config.fabric,
    )
    # Let the switches connect (state-change events) before experiments start.
    net.run(until=0.01)
    return testbed


def build_testbed(
    seed: int = 0,
    n_clients: int = 20,
    cluster_types: Tuple[str, ...] = ("docker", "kubernetes"),
    shared_egs: bool = True,
    client_latency_s: float = 0.00015,
    cloud_rtt_s: float = 0.025,
    control_latency_s: float = 0.0002,
    switch_idle_timeout_s: float = 10.0,
    memory_idle_timeout_s: float = 60.0,
    auto_scale_down: bool = False,
    auto_remove_after_s = None,
    use_flow_memory: bool = True,
    scheduler_name: Optional[str] = None,
    use_private_registry: bool = False,
    trace: Optional[TraceLog] = None,
    retry_policy: Optional[RetryPolicy] = None,
    breaker_config: Optional[BreakerConfig] = None,
    use_breaker: bool = True,
    faults: Optional[Dict[str, Any]] = None,
) -> Testbed:
    """Assemble the canonical testbed (fig. 8).

    ``cluster_types`` selects which edge clusters exist; with ``shared_egs``
    they share one node (and one containerd), like the paper's EGS.

    Resilience knobs: ``retry_policy`` tunes the deployment engine's
    deadlines/backoff, ``breaker_config``/``use_breaker`` the dispatcher's
    per-cluster circuit breakers, and ``faults`` arms the simulation's
    :class:`~repro.simcore.faults.FaultPlane` (e.g.
    ``{"registry.pull": 0.1}``) — left at the defaults, runs are
    bit-identical to a testbed without any of this machinery.
    """
    net = Network(seed=seed, trace=trace)
    sim = net.sim
    if faults:
        sim.faults.configure_many(faults)

    # ---- switch fabric -----------------------------------------------------
    switch = OpenFlowSwitch(sim, "ovs-egs", dpid=1)
    net.add_device(switch)

    hub, private = _image_hub(use_private_registry)

    # ---- clients ------------------------------------------------------------
    clients: List[Host] = []
    port_no = 0
    for index in range(n_clients):
        port_no += 1
        client = net.add_host(f"rpi-{index:02d}", gateway=VGW_IP, prefix_len=32)
        net.connect(client, 0, switch, port_no,
                    latency_s=client_latency_s, bandwidth_bps=1e9)
        clients.append(client)

    # ---- EGS node(s) + clusters ---------------------------------------------
    zones = ZoneMap(default_rtt_s=0.050)
    for client in clients:
        zones.assign_client(client.ip, "access")
    zones.set_rtt("access", "edge", 0.001)

    def attach_node(host: Host) -> AttachmentPoint:
        nonlocal port_no
        port_no += 1
        net.connect(host, 0, switch, port_no, latency_s=0.0001, bandwidth_bps=10e9)
        return AttachmentPoint(dpid=switch.dpid, port_no=port_no,
                               mac=host.mac, ip=host.ip)

    egs = net.add_host("egs", gateway=VGW_IP, prefix_len=32)
    egs_attachment = attach_node(egs)
    shared_runtime = Containerd(sim, egs, hub)

    def place(cluster_type: str) -> Tuple[Host, AttachmentPoint, Containerd]:
        if shared_egs:
            return egs, egs_attachment, shared_runtime
        node = net.add_host(f"egs-{cluster_type}", gateway=VGW_IP, prefix_len=32)
        return node, attach_node(node), Containerd(sim, node, hub)

    clusters, cluster_attachments = _edge_clusters(
        sim, cluster_types, place, private, control_latency_s)

    testbed = _controlled_testbed(
        net, [switch], zones, hub, private, clusters, cluster_attachments,
        egs, clients,
        ControllerConfig(
            vgw_ip=VGW_IP, vgw_mac=VGW_MAC,
            switch_idle_timeout_s=switch_idle_timeout_s,
            auto_scale_down=auto_scale_down,
            auto_remove_after_s=auto_remove_after_s,
            use_flow_memory=use_flow_memory,
        ),
        control_latency_s=control_latency_s,
        memory_idle_timeout_s=memory_idle_timeout_s,
        scheduler_name=scheduler_name,
        retry_policy=retry_policy, breaker_config=breaker_config,
        use_breaker=use_breaker)
    testbed._cloud_latency_s = cloud_rtt_s / 2.0
    return testbed

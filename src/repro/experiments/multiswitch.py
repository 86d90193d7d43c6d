"""Multi-switch fabric testbed (fig. 1/2's general case).

Topology::

    clients ── access-sw-0 ──┐
                             ├── core-sw ── EGS (docker [, k8s]) / cloud
    clients ── access-sw-1 ──┘

Each switch has its own control channel to the one controller; the fabric
topology is configured statically (what LLDP would discover). Redirection
flows span the whole path: rewrite at the client's ingress access switch,
plain 5-tuple forwarding at the core, endpoint MAC rewrite at the egress.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core import AttachmentPoint, ControllerConfig, ZoneMap
from repro.core.fabric import FabricTopology
from repro.edge import Containerd
from repro.experiments.topologies import (
    VGW_IP,
    VGW_MAC,
    Testbed,
    _controlled_testbed,
    _edge_clusters,
    _image_hub,
)
from repro.netsim import Network
from repro.netsim.host import Host
from repro.openflow import OpenFlowSwitch
from repro.simcore import TraceLog

CORE_DPID = 100


def build_multiswitch_testbed(
    seed: int = 0,
    n_access_switches: int = 2,
    clients_per_switch: int = 3,
    cluster_types: Tuple[str, ...] = ("docker",),
    client_latency_s: float = 0.00015,
    interswitch_latency_s: float = 0.0005,
    control_latency_s: float = 0.0002,
    switch_idle_timeout_s: float = 10.0,
    memory_idle_timeout_s: float = 60.0,
    trace: Optional[TraceLog] = None,
) -> Testbed:
    """Build the access/core fabric; returns the same :class:`Testbed`
    surface as :func:`build_testbed` (``tb.switch`` is the core switch,
    ``tb.access_switches`` and ``tb.fabric`` the rest of the fabric)."""
    net = Network(seed=seed, trace=trace)
    sim = net.sim

    # ---- switches + fabric ---------------------------------------------
    fabric = FabricTopology()
    core = OpenFlowSwitch(sim, "core-sw", dpid=CORE_DPID)
    net.add_device(core)
    fabric.add_switch(CORE_DPID)
    access_switches: List[OpenFlowSwitch] = []
    core_port = 0
    for index in range(n_access_switches):
        dpid = index + 1
        switch = OpenFlowSwitch(sim, f"access-sw-{index}", dpid=dpid)
        net.add_device(switch)
        fabric.add_switch(dpid)
        access_switches.append(switch)
    #: uplink port on each access switch (after its client ports)
    uplink_port = clients_per_switch + 1
    for switch in access_switches:
        core_port += 1
        net.connect(switch, uplink_port, core, core_port,
                    latency_s=interswitch_latency_s, bandwidth_bps=10e9)
        fabric.add_link(switch.dpid, uplink_port, CORE_DPID, core_port,
                        weight=interswitch_latency_s)

    hub, private = _image_hub()

    # ---- clients ------------------------------------------------------------
    zones = ZoneMap(default_rtt_s=0.050)
    clients: List[Host] = []
    for index, switch in enumerate(access_switches):
        zone = f"access-{index}"
        zones.set_rtt(zone, "edge", 0.001 + index * 0.0005)
        for port in range(1, clients_per_switch + 1):
            client = net.add_host(f"ue-{index}-{port - 1:02d}",
                                  gateway=VGW_IP, prefix_len=32)
            net.connect(client, 0, switch, port,
                        latency_s=client_latency_s, bandwidth_bps=1e9)
            zones.assign_client(client.ip, zone)
            clients.append(client)

    # ---- EGS + clusters on the core switch -----------------------------------
    egs = net.add_host("egs", gateway=VGW_IP, prefix_len=32)
    core_port += 1
    net.connect(egs, 0, core, core_port, latency_s=0.0001, bandwidth_bps=10e9)
    egs_attachment = AttachmentPoint(dpid=CORE_DPID, port_no=core_port,
                                     mac=egs.mac, ip=egs.ip)
    runtime = Containerd(sim, egs, hub)
    clusters, cluster_attachments = _edge_clusters(
        sim, cluster_types, lambda _type: (egs, egs_attachment, runtime),
        private, control_latency_s)

    return _controlled_testbed(
        net, [core] + access_switches, zones, hub, private, clusters,
        cluster_attachments, egs, clients,
        ControllerConfig(vgw_ip=VGW_IP, vgw_mac=VGW_MAC,
                         switch_idle_timeout_s=switch_idle_timeout_s,
                         fabric=fabric),
        control_latency_s=control_latency_s,
        memory_idle_timeout_s=memory_idle_timeout_s)

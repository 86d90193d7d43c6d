"""Extension experiments: the paper's future work, measured.

* **E1 serverless side-by-side** (§VIII future work): the four Table-I
  services as WASM functions vs. Docker/Kubernetes containers — cold-start
  and first-request latency through the same transparent-access data path;
* **E2 follow-me handover**: a client moves to a different access zone; the
  handover invalidates its flows and the next request lands on the now-
  nearest edge;
* **E3 proactive deployment** (§I / Discussion): EWMA arrival prediction
  pre-deploys just in time, converting cold waits into warm hits under a
  periodic workload with aggressive auto scale-down.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.topologies import build_testbed, request_service
from repro.metrics import Table, summarize

EXT_SERVICES = ("asm", "nginx", "resnet", "nginx+py")


# --------------------------------------------------------------------------
# E1 — serverless vs. containers
# --------------------------------------------------------------------------


def e1_cold_request_cell(service_key: str, cluster_type: str,
                         cluster_name: str, seed: int = 61) -> float:
    """Cold first-request latency for one service on one backend (artifact
    cached and created, nothing running)."""
    tb = build_testbed(seed=seed, n_clients=1, cluster_types=(cluster_type,))
    svc = tb.register_catalog_service(service_key)
    cluster = tb.clusters[cluster_name]

    def prepare():
        yield cluster.pull(svc.spec)
        yield cluster.create(svc.spec)

    tb.sim.spawn(prepare())
    tb.run(until=tb.sim.now + 120.0)
    assert cluster.has_images(svc.spec) and cluster.is_created(svc.spec)
    from repro.edge.services import EDGE_SERVICE_CATALOG

    behavior = EDGE_SERVICE_CATALOG[service_key].serving_behavior
    request = tb.client(0).fetch_service(svc.service_id.addr,
                                         svc.service_id.port, behavior)
    tb.run(until=tb.sim.now + 60.0)
    assert request.done and request.result.ok
    return request.result.time_total


E1_BACKENDS = (("serverless", "wasm-egs", "wasm_s"),
               ("docker", "docker-egs", "docker_s"),
               ("kubernetes", "k8s-egs", "k8s_s"))


def e1_serverless_vs_containers() -> Table:
    """First-request latency (module/image cached, nothing running) for the
    WASM runtime vs. Docker vs. Kubernetes — fig. 11's experiment with the
    serverless backend added."""
    table = Table(
        title="E1 — Cold first request: WASM function vs. Docker vs. Kubernetes",
        columns=["service", "wasm_s", "docker_s", "k8s_s", "wasm_speedup_vs_docker"],
        note="artifacts cached; created; nothing running (scale-up only)",
    )
    for key in EXT_SERVICES:
        row: Dict[str, float] = {
            column: e1_cold_request_cell(service_key=key,
                                         cluster_type=cluster_type,
                                         cluster_name=cluster_name, seed=61)
            for cluster_type, cluster_name, column in E1_BACKENDS}
        table.add(service=key, wasm_s=row["wasm_s"], docker_s=row["docker_s"],
                  k8s_s=row["k8s_s"],
                  wasm_speedup_vs_docker=f"{row['docker_s'] / row['wasm_s']:.0f}x")
    return table


def e1_artifact_sizes() -> Table:
    """Artifact size comparison: container image vs. WASM module."""
    from repro.edge.serverless import wasm_function_for_catalog
    from repro.edge.services import EDGE_SERVICE_CATALOG

    table = Table(
        title="E1b — Artifact sizes: container image(s) vs. WASM module",
        columns=["service", "image_bytes", "module_bytes", "ratio"],
        time_columns=set(),
    )
    for key in EXT_SERVICES:
        entry = EDGE_SERVICE_CATALOG[key]
        function = wasm_function_for_catalog(key)
        ratio = entry.total_size_bytes / function.module_size_bytes
        table.add(service=key,
                  image_bytes=entry.total_size_bytes,
                  module_bytes=function.module_size_bytes,
                  ratio=f"{ratio:.2f}x" if ratio < 1 else f"{ratio:.0f}x")
    return table


# --------------------------------------------------------------------------
# E2 — follow-me handover
# --------------------------------------------------------------------------


def e2_follow_me_handover() -> Table:
    """A UE moves from zone A (near edge A) to zone B (near edge B).

    Without a handover the old flows keep sending it across the topology to
    edge A; with the handover the next request re-dispatches to edge B.
    """
    table = Table(
        title="E2 — Follow-me handover after a client moves zones",
        columns=["phase", "request_s", "served_by"],
        time_columns={"request_s"},
    )
    tb = build_testbed(seed=67, n_clients=1, cluster_types=("docker",),
                       memory_idle_timeout_s=3600.0,
                       switch_idle_timeout_s=3600.0)
    # second edge cluster in zone B, reachable over a farther link
    from repro.core.controller import AttachmentPoint
    from repro.edge import Containerd, DockerCluster, DockerEngine

    node_b = tb.net.add_host("egs-b", gateway=None, prefix_len=32)
    port_no = max(tb.switch.port_numbers) + 1
    tb.net.connect(node_b, 0, tb.switch, port_no, latency_s=0.004)
    runtime_b = Containerd(tb.sim, node_b, tb.hub)
    edge_b = DockerCluster(tb.sim, "docker-b", DockerEngine(tb.sim, runtime_b),
                           zone="zone-b")
    tb.clusters[edge_b.name] = edge_b
    tb.dispatcher.clusters.append(edge_b)
    tb.controller.cluster_attachments[edge_b.name] = AttachmentPoint(
        dpid=tb.switch.dpid, port_no=port_no, mac=node_b.mac, ip=node_b.ip)
    # zone A = "access" (near docker-egs/"edge"); zone B near docker-b
    tb.zones.set_rtt("access", "zone-b", 0.008)
    tb.zones.set_rtt("zone-b-access", "zone-b", 0.001)
    tb.zones.set_rtt("zone-b-access", "edge", 0.008)

    svc = tb.register_catalog_service("nginx")
    for cluster in tb.clusters.values():
        cluster.pull(svc.spec)
    tb.run(until=tb.sim.now + 60.0)

    def measure(phase):
        request = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 30.0)
        assert request.done and request.result.ok
        remembered = tb.memory.peek(tb.clients[0].ip, svc.service_id)
        table.add(phase=phase, request_s=request.result.time_total,
                  served_by=remembered.cluster.name if remembered else "(flows)")
        return request.result

    measure("at zone A (cold)")
    measure("at zone A (warm)")
    # the client moves; WITHOUT handover its stale flows still hit edge A
    tb.zones.assign_client(tb.clients[0].ip, "zone-b-access")
    measure("moved to B, no handover")
    # follow-me handover invalidates the stale state
    tb.move_client(0, "zone-b-access")
    tb.run(until=tb.sim.now + 1.0)
    measure("moved to B, after handover")
    return table


# --------------------------------------------------------------------------
# E4 — hierarchical edge escape path
# --------------------------------------------------------------------------


def e4_hierarchical_escape() -> Table:
    """§IV-A2's hierarchy exploited by the scheduler.

    Three tiers: the client's access edge (cold, nothing cached), an
    aggregation edge on the route to the cloud (images cached), a regional
    edge (nothing), plus the cloud origin. Tight latency budget, nothing
    running anywhere.

    * flat proximity: no ready instance exists → the first request goes all
      the way to the **cloud** while the access edge pulls + deploys;
    * hierarchical: the first request is served by the **aggregation edge**
      after a pull-free cold start — traffic stays at the edge (the paper's
      locality/bandwidth argument), trading a little first-request latency.
    """
    table = Table(
        title="E4 — Flat proximity vs. hierarchical scheduling "
              "(cold access edge, cached aggregation edge)",
        columns=["scheduler", "first_request_s", "first_served_by",
                 "edge_local", "later_request_s", "later_served_by"],
        time_columns={"first_request_s", "later_request_s"},
        note="tight 50 ms budget; nothing running anywhere at t0",
    )
    for flavour in ("proximity", "hierarchical"):
        table.add(**e4_hierarchy_cell(flavour=flavour, seed=73))
    return table


def e4_hierarchy_cell(flavour: str, seed: int = 73) -> Dict[str, object]:
    """One scheduler flavour over the three-tier hierarchy testbed."""
    from repro.core.hierarchy import EdgeHierarchy, HierarchicalScheduler
    from repro.core.scheduler import ProximityScheduler
    from repro.experiments.topologies import add_docker_cluster

    tb = build_testbed(seed=seed, n_clients=1, cluster_types=("docker",),
                       cloud_rtt_s=0.030,
                       switch_idle_timeout_s=3.0, memory_idle_timeout_s=6.0)
    access = tb.clusters["docker-egs"]  # zone "edge", rtt 1 ms
    aggregation = add_docker_cluster(tb, "docker-agg", zone="aggregation",
                                     link_latency_s=0.0025,
                                     access_rtt_s=0.005)
    regional = add_docker_cluster(tb, "docker-regional", zone="regional",
                                  link_latency_s=0.006,
                                  access_rtt_s=0.012)
    hierarchy = EdgeHierarchy({access.name: aggregation.name,
                               aggregation.name: regional.name,
                               regional.name: None})
    if flavour == "hierarchical":
        tb.dispatcher.scheduler = HierarchicalScheduler(tb.zones, hierarchy)
    else:
        tb.dispatcher.scheduler = ProximityScheduler(tb.zones)
    svc = tb.register_catalog_service("nginx", max_initial_delay_s=0.05,
                                      with_cloud_origin=True)
    pre = aggregation.pull(svc.spec)  # only the aggregation tier caches
    tb.run(until=tb.sim.now + 60.0)
    assert pre.done and pre.exception is None

    first = request_service(tb, svc, window_s=2.0)
    first_served = tb.memory.peek(tb.clients[0].ip, svc.service_id)
    first_by = first_served.cluster.name if first_served else "cloud"
    # wait out flows+memory, then see where steady-state requests land
    tb.run(until=tb.sim.now + 30.0)
    later = request_service(tb, svc, window_s=5.0)
    later_served = tb.memory.peek(tb.clients[0].ip, svc.service_id)
    later_by = later_served.cluster.name if later_served else "cloud"
    return {"scheduler": flavour,
            "first_request_s": first.time_total,
            "first_served_by": first_by,
            "edge_local": first_by != "cloud",
            "later_request_s": later.time_total,
            "later_served_by": later_by}


# --------------------------------------------------------------------------
# E5 — Kubernetes autoscaling under load
# --------------------------------------------------------------------------


def e5_autoscaling_under_load(
    load_rps: float = 8.0,
    duration_s: float = 90.0,
    request_cpu_s: float = 0.18,
) -> Table:
    """The Discussion's K8s selling point, quantified: "Kubernetes provides
    us with automated management and scaling of container instances."

    A CPU-heavy (ResNet-class) service takes sustained load beyond one
    instance's capacity (~5.5 rps at 180 ms/request). Without the HPA the
    single pod's queue grows without bound; with it, replicas scale out and
    latency stays near the service time.
    """
    table = Table(
        title="E5 — K8s horizontal autoscaling under sustained overload",
        columns=["autoscaler", "median_s", "p95_s", "max_s",
                 "peak_replicas", "scale_events"],
        time_columns={"median_s", "p95_s", "max_s"},
        note=f"{load_rps:.0f} rps of {request_cpu_s * 1e3:.0f} ms-CPU requests "
             f"for {duration_s:.0f}s; 1 pod handles ~{1 / request_cpu_s:.1f} rps",
    )
    for use_hpa in (False, True):
        table.add(**e5_autoscaling_cell(use_hpa=use_hpa, load_rps=load_rps,
                                        duration_s=duration_s, seed=79))
    return table


def e5_autoscaling_cell(use_hpa: bool, load_rps: float = 8.0,
                        duration_s: float = 90.0,
                        seed: int = 79) -> Dict[str, object]:
    """One autoscaler arm of E5 under the sustained-overload workload."""
    from repro.edge.kubernetes import HorizontalPodAutoscaler
    from repro.edge.services import catalog_behavior

    tb = build_testbed(seed=seed, n_clients=16, cluster_types=("kubernetes",),
                       memory_idle_timeout_s=3600.0,
                       switch_idle_timeout_s=3600.0)
    svc = tb.register_catalog_service("resnet")
    cluster = tb.clusters["k8s-egs"]
    warm = tb.engine.ensure_available(cluster, svc)
    tb.run(until=tb.sim.now + 120.0)
    assert warm.done and warm.exception is None
    hpa = None
    if use_hpa:
        hpa = HorizontalPodAutoscaler(
            cluster.k8s, svc.name, target_rps_per_pod=3.0,
            min_replicas=1, max_replicas=6, sync_period_s=5.0)

    behavior = catalog_behavior("resnet")
    requests = []
    gap = 1.0 / load_rps
    n_requests = int(duration_s * load_rps)

    def issue(index):
        client = tb.client(index % len(tb.timed_clients))
        requests.append(client.fetch_service(
            svc.service_id.addr, svc.service_id.port, behavior))

    for index in range(n_requests):
        tb.sim.schedule(index * gap, issue, index)
    tb.run(until=tb.sim.now + duration_s + 120.0)
    timings = [r.result for r in requests if r.done]
    assert len(timings) == n_requests
    ok = [t.time_total for t in timings if t.ok]
    assert len(ok) == n_requests
    stats = summarize(ok)
    peak = 1
    if hpa is not None and hpa.scale_events:
        peak = max(to for _, _, to in hpa.scale_events)
    row: Dict[str, object] = {
        "autoscaler": "on" if use_hpa else "off",
        "median_s": stats.median, "p95_s": stats.p95, "max_s": stats.maximum,
        "peak_replicas": peak,
        "scale_events": len(hpa.scale_events) if hpa else 0,
    }
    if hpa:
        hpa.stop()
    return row


# --------------------------------------------------------------------------
# E3 — proactive deployment
# --------------------------------------------------------------------------


def e3_proactive_deployment(period_s: float = 45.0, cycles: int = 8) -> Table:
    """Periodic requests with a period exceeding the idle scale-down
    timeout: reactively, every request after the first finds the instance
    scaled down and waits for a cold start; the EWMA predictor re-deploys
    just in time instead."""
    table = Table(
        title="E3 — Proactive vs. reactive deployment (periodic workload, "
              "aggressive scale-to-zero)",
        columns=["mode", "median_s", "p95_s", "cold_requests", "predeployments"],
        time_columns={"median_s", "p95_s"},
        note=f"request period {period_s:.0f}s > 30s idle scale-down",
    )
    for proactive in (False, True):
        table.add(**e3_proactive_cell(proactive=proactive, period_s=period_s,
                                      cycles=cycles, seed=71))
    return table


def e3_proactive_cell(proactive: bool, period_s: float = 45.0,
                      cycles: int = 8, seed: int = 71) -> Dict[str, object]:
    """One arm (reactive or proactive) of E3's periodic workload."""
    tb = build_testbed(seed=seed, n_clients=1, cluster_types=("docker",),
                       memory_idle_timeout_s=30.0, auto_scale_down=True)
    deployer = tb.attach_predeployer(lead_time_s=2.0) if proactive else None
    svc = tb.register_catalog_service("nginx")
    tb.clusters["docker-egs"].pull(svc.spec)
    tb.run(until=tb.sim.now + 60.0)

    samples: List[float] = []
    cold = 0
    for _cycle in range(cycles):
        request = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 20.0)
        assert request.done and request.result.ok
        samples.append(request.result.time_total)
        if request.result.time_total > 0.2:
            cold += 1
        # advance to the next period boundary
        tb.run(until=tb.sim.now + period_s - 20.0)
    stats = summarize(samples)
    return {"mode": "proactive" if proactive else "reactive",
            "median_s": stats.median, "p95_s": stats.p95,
            "cold_requests": cold,
            "predeployments": deployer.stats.predeployed if deployer else 0}

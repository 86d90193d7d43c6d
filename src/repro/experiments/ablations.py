"""Ablation studies for the design choices DESIGN.md §5 calls out.

Each returns a :class:`~repro.metrics.report.Table` contrasting a design
decision with its alternative:

* FlowMemory on/off (re-miss cost — complements experiment A2);
* on-demand deployment *with* vs. *without* waiting (first-request latency
  vs. where later requests land);
* the Discussion section's hybrid: serve the first request via Docker, then
  migrate the service to Kubernetes for managed operation;
* Global-Scheduler policies under skewed load;
* public vs. private registry and warm vs. cold layer cache.

Each arm of every ablation is an independently seeded *cell*: a top-level
function of its own arguments, called once per arm in table order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.scheduler import LoadAwareScheduler, ProximityScheduler, RoundRobinScheduler
from repro.experiments.topologies import build_testbed, request_service
from repro.metrics import Table, summarize
from repro.openflow import Match


def flow_memory_cell(use_memory: bool, repeats: int,
                     seed: int = 41) -> Dict[str, object]:
    """Re-miss samples for one FlowMemory setting."""
    tb = build_testbed(seed=seed, n_clients=1, cluster_types=("docker",),
                       switch_idle_timeout_s=5.0,
                       memory_idle_timeout_s=3600.0,
                       use_flow_memory=use_memory)
    svc = tb.register_catalog_service("nginx")
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], svc)
    tb.run(until=tb.sim.now + 60.0)
    assert warm.done and warm.exception is None
    request_service(tb, svc)  # prime memory + flows
    samples = []
    for _ in range(repeats):
        tb.run(until=tb.sim.now + 8.0)  # switch flows idle out
        samples.append(request_service(tb, svc).time_total)
    return {"flow_memory": "on" if use_memory else "off",
            "remiss_median": summarize(samples).median,
            "dispatches": tb.controller.stats["service_dispatches"]}


def ablation_flow_memory(repeats: int = 9) -> Table:
    """Re-miss latency with and without FlowMemory (switch idle timeouts
    kept LOW, per the design's stated purpose)."""
    table = Table(
        title="Ablation — FlowMemory on/off (re-miss after switch flow idled out)",
        columns=["flow_memory", "remiss_median", "dispatches"],
        note="low (5 s) switch idle timeout; warm instance",
    )
    for use_memory in (True, False):
        table.add(**flow_memory_cell(use_memory=use_memory, repeats=repeats,
                                     seed=41))
    return table


def waiting_mode_cell(mode: str, budget: Optional[float],
                      seed: int = 43) -> Dict[str, object]:
    """One waiting-mode arm: optimal edge cold, farther edge warm."""
    tb = build_testbed(seed=seed, n_clients=1,
                       cluster_types=("docker", "kubernetes"),
                       switch_idle_timeout_s=3.0,
                       memory_idle_timeout_s=6.0)
    optimal = tb.clusters["docker-egs"]
    farther = tb.clusters["k8s-egs"]
    farther.zone = "far-edge"
    tb.zones.set_rtt("access", "far-edge", 0.015)
    svc = tb.register_catalog_service("nginx", max_initial_delay_s=budget)
    # farther edge warm; optimal edge cold but image cached
    warm = tb.engine.ensure_available(farther, svc)
    pull = optimal.pull(svc.spec)
    tb.run(until=tb.sim.now + 60.0)
    assert warm.done and pull.done
    first = request_service(tb, svc)
    # wait for flows+memory to idle out so the next request re-dispatches
    tb.run(until=tb.sim.now + 10.0)
    later = request_service(tb, svc, window_s=2.0)
    remembered = tb.memory.peek(tb.clients[0].ip, svc.service_id)
    assert remembered is not None, "memory entry expired before peek"
    served_by_optimal = remembered.cluster is optimal
    return {"mode": mode,
            "first_request": first.time_total,
            "later_request": later.time_total,
            "served_by_optimal_later": served_by_optimal}


def ablation_waiting_modes() -> Table:
    """With-waiting vs. without-waiting when the optimal edge is cold but a
    farther edge has a running instance."""
    table = Table(
        title="Ablation — On-demand deployment with vs. without waiting",
        columns=["mode", "first_request", "later_request", "served_by_optimal_later"],
        note="optimal edge cold (image cached); farther edge warm",
        time_columns={"first_request", "later_request"},
    )
    for mode, budget in (("with_waiting", None), ("without_waiting", 0.05)):
        table.add(**waiting_mode_cell(mode=mode, budget=budget, seed=43))
    return table


def hybrid_cell(strategy: str, seed: int = 47) -> Dict[str, object]:
    """One strategy arm of the Docker-then-K8s hybrid ablation."""
    if strategy == "k8s_only":
        tb = build_testbed(seed=seed, n_clients=1, cluster_types=("kubernetes",),
                           switch_idle_timeout_s=3.0, memory_idle_timeout_s=6.0)
        svc = tb.register_catalog_service("nginx")
        pull = tb.clusters["k8s-egs"].pull(svc.spec)
        tb.run(until=tb.sim.now + 60.0)
        first = request_service(tb, svc)
        steady = request_service(tb, svc, window_s=2.0)
        return {"strategy": strategy, "first_request": first.time_total,
                "steady_request": steady.time_total, "managed_by": "kubernetes"}

    # Hybrid — Docker answers the first request (it is the nearest/fastest
    # to become ready); K8s is deployed in the background afterwards.
    tb = build_testbed(seed=seed, n_clients=1,
                       cluster_types=("docker", "kubernetes"),
                       switch_idle_timeout_s=3.0, memory_idle_timeout_s=6.0)
    docker = tb.clusters["docker-egs"]
    k8s = tb.clusters["k8s-egs"]
    svc = tb.register_catalog_service("nginx")
    pull = docker.pull(svc.spec)  # shared containerd: also cached for K8s
    tb.run(until=tb.sim.now + 60.0)
    first = request_service(tb, svc)  # docker cold start ~0.6 s
    # Background: move the service under Kubernetes management.
    deploy = tb.engine.ensure_available(k8s, svc)
    tb.run(until=tb.sim.now + 30.0)
    assert deploy.done and deploy.exception is None
    tb.engine.scale_down(docker, svc)
    tb.memory.clear()
    tb.switch.table.delete(Match(eth_type=0x0800, ip_proto=6))
    tb.run(until=tb.sim.now + 10.0)
    steady = request_service(tb, svc, window_s=2.0)
    remembered = tb.memory.peek(tb.clients[0].ip, svc.service_id)
    assert remembered is not None, "memory entry expired before peek"
    return {"strategy": strategy, "first_request": first.time_total,
            "steady_request": steady.time_total,
            "managed_by": remembered.cluster.cluster_type}


def ablation_hybrid_docker_then_k8s() -> Table:
    """The Discussion's 'best of both worlds': answer the first request from
    a Docker-started instance, deploy to Kubernetes in the background, and
    let future requests land on the managed K8s instance."""
    table = Table(
        title="Ablation — Hybrid: Docker first response, Kubernetes afterwards",
        columns=["strategy", "first_request", "steady_request", "managed_by"],
        note="image cached on the shared EGS containerd",
        time_columns={"first_request", "steady_request"},
    )
    for strategy in ("k8s_only", "hybrid_docker_then_k8s"):
        table.add(**hybrid_cell(strategy=strategy, seed=47))
    return table


def scheduler_cell(name: str, n_services: int, clients_per_service: int,
                   seed: int = 53) -> Dict[str, object]:
    """One Global-Scheduler policy under skewed load."""
    tb = build_testbed(seed=seed, n_clients=n_services * clients_per_service,
                       cluster_types=("docker",), shared_egs=True)
    # add a second docker cluster on its own node, farther away
    from repro.core.controller import AttachmentPoint
    from repro.edge import Containerd, DockerCluster, DockerEngine

    node = tb.net.add_host("egs-far", gateway=None, prefix_len=32)
    port_no = max(tb.switch.port_numbers) + 1
    tb.net.connect(node, 0, tb.switch, port_no, latency_s=0.002)
    runtime = Containerd(tb.sim, node, tb.hub)
    far = DockerCluster(tb.sim, "docker-far", DockerEngine(tb.sim, runtime),
                        zone="far-edge")
    tb.zones.set_rtt("access", "far-edge", 0.010)
    tb.clusters[far.name] = far
    tb.dispatcher.clusters.append(far)
    tb.controller.cluster_attachments[far.name] = AttachmentPoint(
        dpid=tb.switch.dpid, port_no=port_no, mac=node.mac, ip=node.ip)

    if name == "proximity":
        tb.dispatcher.scheduler = ProximityScheduler(tb.zones)
    elif name == "round-robin":
        tb.dispatcher.scheduler = RoundRobinScheduler()
    else:
        tb.dispatcher.scheduler = LoadAwareScheduler(tb.zones)

    services = [tb.register_catalog_service("asm") for _ in range(n_services)]
    for cluster in tb.clusters.values():
        for svc in services:
            cluster.pull(svc.spec)
    tb.run(until=tb.sim.now + 60.0)

    # Stagger arrivals so load-aware policies can observe load build-up.
    requests = []

    def issue(client_index, svc):
        requests.append(tb.client(client_index).fetch(
            svc.service_id.addr, svc.service_id.port))

    offset = 0.0
    for service_index, svc in enumerate(services):
        for c in range(clients_per_service):
            client_index = service_index * clients_per_service + c
            tb.sim.schedule(offset, issue, client_index, svc)
            offset += 0.3
    tb.run(until=tb.sim.now + offset + 60.0)
    timings = [r.result for r in requests if r.done]
    assert len(timings) == len(requests)
    stats = summarize([t.time_total for t in timings if t.ok])
    by_cluster: Dict[str, int] = {}
    for record in tb.engine.records_for(cold_only=True):
        by_cluster[record.cluster] = by_cluster.get(record.cluster, 0) + 1
    return {"scheduler": name, "median": stats.median, "p95": stats.p95,
            "near_deployments": by_cluster.get("docker-egs", 0),
            "far_deployments": by_cluster.get("docker-far", 0)}


def ablation_schedulers(n_services: int = 6, clients_per_service: int = 3) -> Table:
    """Scheduler policies under load: proximity piles everything on the
    nearest cluster; round-robin and load-aware spread deployments."""
    table = Table(
        title="Ablation — Global Scheduler policies (2 edges, skewed demand)",
        columns=["scheduler", "median", "p95", "near_deployments", "far_deployments"],
        note=f"{n_services} services x {clients_per_service} clients each",
    )
    for name in ("proximity", "round-robin", "load-aware"):
        table.add(**scheduler_cell(name=name, n_services=n_services,
                                   clients_per_service=clients_per_service,
                                   seed=53))
    return table


def registry_cache_cell(private: bool, keys: Tuple[str, ...],
                        seed: int = 59) -> float:
    """Pull the listed services in order; return the last pull's duration."""
    tb = build_testbed(seed=seed, n_clients=1, cluster_types=("docker",),
                       use_private_registry=private)
    cluster = tb.clusters["docker-egs"]
    durations = []
    for key in keys:
        svc = tb.register_catalog_service(key)
        holder = {}

        def timed(cluster=cluster, svc=svc, holder=holder):
            t0 = tb.sim.now
            yield cluster.pull(svc.spec)
            holder["d"] = tb.sim.now - t0

        tb.sim.spawn(timed())
        tb.run(until=tb.sim.now + 120.0)
        durations.append(holder["d"])
    return durations[-1]


def ablation_registry_cache() -> Table:
    """Pull-time composition: cold vs. warm layer cache, public vs. private
    registry, and the shared-base-layer effect (nginx then nginx+py)."""
    table = Table(
        title="Ablation — Registry and layer-cache effects on pull time",
        columns=["scenario", "pull_s"],
    )
    scenarios: List[Tuple[str, bool, Tuple[str, ...]]] = [
        ("nginx, public, cold", False, ("nginx",)),
        ("nginx, private, cold", True, ("nginx",)),
        ("nginx twice (warm cache)", False, ("nginx", "nginx")),
        ("nginx then nginx+py (shared base)", False, ("nginx", "nginx+py")),
    ]
    for label, private, keys in scenarios:
        table.add(scenario=label,
                  pull_s=registry_cache_cell(private=private, keys=keys, seed=59))
    return table

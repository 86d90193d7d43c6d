"""Part A: reconstructed evaluation of the target paper (IPDPSW'19).

The target paper's own evaluation is not available (see the mismatch note in
DESIGN.md); these drivers measure the quantities a prototype evaluation of
*transparent access* measures:

* **A1** — response time of transparent edge access vs. direct cloud access,
  over a sweep of cloud RTTs: the motivating benefit.
* **A2** — the cost of transparency: first-packet overhead (packet-in →
  dispatch → flow-mod) vs. the flow-table fast path, and the re-miss cost
  with and without FlowMemory.
* **A3** — controller scaling: flow-setup latency as concurrent new flows
  and the number of registered services grow (the single-threaded Ryu
  pipeline is the bottleneck).
* **A4** — switch flow-table occupancy vs. idle timeout under the trace
  workload, against the FlowMemory size (the design that lets switch
  timeouts stay low).

Every sweep point is an independently seeded *cell*: a top-level function
that builds its own testbed from its own seed and returns plain data, so a
sweep is the cells called in sweep order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.experiments.partb import replay_trace_through_controller
from repro.experiments.topologies import Testbed, build_testbed
from repro.metrics import Table, summarize
from repro.openflow import Match
from repro.workloads.trace import synthesize_bigflows_trace


# --------------------------------------------------------------------------
# A1 — transparent edge vs. cloud
# --------------------------------------------------------------------------


def a1_cell(cloud_rtt: float, requests: int,
            seed: int = 21) -> Tuple[List[float], List[float]]:
    """Warm edge vs. cloud samples for one cloud RTT."""
    tb = build_testbed(seed=seed, n_clients=1, cluster_types=("docker",),
                       cloud_rtt_s=cloud_rtt)
    svc = tb.register_catalog_service("nginx", with_cloud_origin=True)
    # Also a pure-cloud control: same behaviour, unregistered address.
    from repro.edge.services import catalog_behavior

    cloud_sid = tb.alloc_service_id(80)
    tb.add_cloud_origin(cloud_sid, catalog_behavior("nginx"))
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], svc)
    tb.run(until=tb.sim.now + 60.0)
    assert warm.done and warm.exception is None

    edge_samples: List[float] = []
    cloud_samples: List[float] = []
    for index in range(requests):
        edge_request = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 5.0)
        assert edge_request.done and edge_request.result.ok
        cloud_request = tb.client(0).fetch(cloud_sid.addr, cloud_sid.port)
        tb.run(until=tb.sim.now + 5.0)
        assert cloud_request.done and cloud_request.result.ok
        if index > 0:  # drop first samples (carry flow-setup latency)
            edge_samples.append(edge_request.result.time_total)
            cloud_samples.append(cloud_request.result.time_total)
        tb.run(until=tb.sim.now + 0.5)
    return edge_samples, cloud_samples


def a1_edge_vs_cloud(cloud_rtts_s: Tuple[float, ...] = (0.010, 0.025, 0.050, 0.100),
                     requests: int = 10) -> Table:
    """Median ``time_total``: transparent edge access vs. direct cloud
    access, for an nginx-class service, over a sweep of cloud RTTs."""
    table = Table(
        title="A1 — Transparent edge vs. cloud access (nginx-class, warm)",
        columns=["cloud_rtt_ms", "edge_median", "cloud_median", "speedup"],
        note="median over warm requests; edge time independent of cloud RTT",
    )
    for cloud_rtt in cloud_rtts_s:
        edge_samples, cloud_samples = a1_cell(cloud_rtt=cloud_rtt,
                                              requests=requests, seed=21)
        edge_median = summarize(edge_samples).median
        cloud_median = summarize(cloud_samples).median
        table.add(cloud_rtt_ms=f"{cloud_rtt * 1e3:.0f}",
                  edge_median=edge_median, cloud_median=cloud_median,
                  speedup=f"{cloud_median / edge_median:.1f}x")
    return table


# --------------------------------------------------------------------------
# A2 — first-packet overhead and the FlowMemory re-miss path
# --------------------------------------------------------------------------


def a2_cell(use_memory: bool, repeats: int,
            seed: int = 23) -> Dict[str, List[float]]:
    """Per-path latency samples for one FlowMemory setting."""
    samples: Dict[str, List[float]] = {"fast_path": [], "first_packet": [],
                                       "remiss_with_memory": [],
                                       "remiss_without_memory": []}
    tb = build_testbed(seed=seed, n_clients=1, cluster_types=("docker",),
                       switch_idle_timeout_s=5.0,
                       memory_idle_timeout_s=3600.0,
                       use_flow_memory=use_memory)
    svc = tb.register_catalog_service("nginx")
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], svc)
    tb.run(until=tb.sim.now + 60.0)
    assert warm.done and warm.exception is None

    def timed_request():
        request = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 5.0)
        assert request.done and request.result.ok
        return request.result.time_total

    for _ in range(repeats):
        # state: no flows, no memory for first iteration
        tb.switch.table.delete(Match(eth_type=0x0800, ip_proto=6))
        tb.memory.clear()
        if use_memory:
            samples["first_packet"].append(timed_request())
        # immediately again: pure fast path (flows installed)
        fast = timed_request()
        if use_memory:
            samples["fast_path"].append(fast)
        # let the switch flow idle out but keep memory
        tb.run(until=tb.sim.now + 8.0)
        remiss = timed_request()
        key = "remiss_with_memory" if use_memory else "remiss_without_memory"
        samples[key].append(remiss)
    return samples


def a2_first_packet_overhead(repeats: int = 9) -> Table:
    """The cost of transparency, per path through the controller:

    * ``fast_path`` — flows installed, packets never leave the switch;
    * ``first_packet`` — table miss + dispatch (instance ready, no deploy);
    * ``remiss_with_memory`` — switch flow idled out, FlowMemory answers;
    * ``remiss_without_memory`` — ablation: full re-dispatch instead.
    """
    table = Table(
        title="A2 — Request latency by controller path (nginx-class, instance ready)",
        columns=["path", "median", "overhead_vs_fast"],
        note="overhead = median - fast-path median",
    )
    samples: Dict[str, List[float]] = {"fast_path": [], "first_packet": [],
                                       "remiss_with_memory": [],
                                       "remiss_without_memory": []}
    for use_memory in (True, False):
        cell_samples = a2_cell(use_memory=use_memory, repeats=repeats, seed=23)
        for key, values in cell_samples.items():
            samples[key].extend(values)

    fast_median = summarize(samples["fast_path"]).median
    for path in ("fast_path", "first_packet", "remiss_with_memory",
                 "remiss_without_memory"):
        median = summarize(samples[path]).median
        table.add(path=path, median=median,
                  overhead_vs_fast=median - fast_median)
    return table


def a2b_cell(latency: float, repeats: int,
             seed: int = 27) -> Tuple[List[float], List[float]]:
    """First-packet and fast-path samples for one control-channel latency."""
    tb = build_testbed(seed=seed, n_clients=1, cluster_types=("docker",),
                       control_latency_s=latency,
                       memory_idle_timeout_s=3600.0)
    svc = tb.register_catalog_service("nginx")
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], svc)
    tb.run(until=tb.sim.now + 60.0)
    assert warm.done and warm.exception is None
    first_samples: List[float] = []
    fast_samples: List[float] = []
    for _ in range(repeats):
        tb.switch.table.delete(Match(eth_type=0x0800, ip_proto=6))
        tb.memory.clear()
        request = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 5.0)
        assert request.done and request.result.ok
        first_samples.append(request.result.time_total)
        request = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 5.0)
        assert request.done and request.result.ok
        fast_samples.append(request.result.time_total)
    return first_samples, fast_samples


def a2b_control_latency_sweep(
    latencies_s: Tuple[float, ...] = (0.0001, 0.0005, 0.002, 0.010),
    repeats: int = 5,
) -> Table:
    """First-packet overhead vs. control-channel latency.

    The slow path pays ~2 channel traversals (packet-in + flow-mod/packet-
    out) plus controller processing; the measured overhead should track
    ``2 × latency + const``. Placement of the controller (on the EGS vs. in
    a regional PoP) is therefore a first-order design decision.
    """
    table = Table(
        title="A2b — First-packet overhead vs. control-channel latency",
        columns=["channel_latency_ms", "first_packet_median", "fast_path_median",
                 "overhead", "overhead_over_2rtt"],
        time_columns={"first_packet_median", "fast_path_median", "overhead"},
    )
    for latency in latencies_s:
        first_samples, fast_samples = a2b_cell(latency=latency, repeats=repeats,
                                               seed=27)
        first = summarize(first_samples).median
        fast = summarize(fast_samples).median
        overhead = first - fast
        table.add(channel_latency_ms=f"{latency * 1e3:g}",
                  first_packet_median=first, fast_path_median=fast,
                  overhead=overhead,
                  overhead_over_2rtt=f"{overhead / (2 * latency):.1f}x")
    return table


# --------------------------------------------------------------------------
# A3 — controller scaling
# --------------------------------------------------------------------------


def a3_cell(concurrent: int, n_services: int,
            seed: int = 29) -> Tuple[List[float], int]:
    """Flow-setup samples + packet-in count for one concurrency level."""
    tb = build_testbed(seed=seed, n_clients=concurrent,
                       cluster_types=("docker",),
                       memory_idle_timeout_s=3600.0)
    services = [tb.register_catalog_service("asm") for _ in range(n_services)]
    for svc in services:
        warm = tb.engine.ensure_available(tb.clusters["docker-egs"], svc)
    tb.run(until=tb.sim.now + 120.0)
    for svc in services:
        assert tb.clusters["docker-egs"].is_ready(svc.spec)
    packet_ins_before = tb.switch.packet_ins
    requests = []
    for index in range(concurrent):
        svc = services[index % n_services]
        requests.append(tb.client(index).fetch(svc.service_id.addr,
                                               svc.service_id.port))
    tb.run(until=tb.sim.now + 10.0)
    timings = [r.result for r in requests]
    assert all(r.done for r in requests) and all(t.ok for t in timings)
    return ([t.time_total for t in timings],
            tb.switch.packet_ins - packet_ins_before)


def a3_controller_scaling(
    concurrency_levels: Tuple[int, ...] = (1, 4, 8, 16),
    n_services: int = 16,
) -> Table:
    """Flow-setup latency vs. number of simultaneous new flows.

    All instances are warm; every client hits a *different* service with no
    installed flow, so each request costs one dispatch through the
    single-threaded controller pipeline.
    """
    table = Table(
        title="A3 — Flow-setup latency vs. concurrent new flows (warm instances)",
        columns=["concurrent", "median", "p95", "max", "packet_ins"],
        note=f"{n_services} registered services; single-threaded controller",
    )
    for concurrent in concurrency_levels:
        samples, packet_ins = a3_cell(concurrent=concurrent,
                                      n_services=n_services, seed=29)
        stats = summarize(samples)
        table.add(concurrent=concurrent, median=stats.median, p95=stats.p95,
                  max=stats.maximum, packet_ins=packet_ins)
    return table


def a3b_cell(count: int, seed: int = 31) -> List[float]:
    """First-packet samples with ``count`` registered (mostly idle)
    services."""
    tb = build_testbed(seed=seed, n_clients=1, cluster_types=("docker",),
                       memory_idle_timeout_s=3600.0)
    services = [tb.register_catalog_service("asm") for _ in range(count)]
    target = services[0]
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], target)
    tb.run(until=tb.sim.now + 60.0)
    samples: List[float] = []
    for _ in range(5):
        tb.switch.table.delete(Match(eth_type=0x0800, ip_proto=6))
        tb.memory.clear()
        request = tb.client(0).fetch(target.service_id.addr,
                                     target.service_id.port)
        tb.run(until=tb.sim.now + 5.0)
        assert request.done and request.result.ok
        samples.append(request.result.time_total)
    return samples


def a3_service_count_scaling(
    service_counts: Tuple[int, ...] = (1, 8, 32, 128),
) -> Table:
    """Dispatch latency vs. number of *registered* services (registry and
    instance-gathering costs stay flat — the lookup is O(1) by ServiceID)."""
    table = Table(
        title="A3b — First-packet latency vs. registered service count",
        columns=["services", "first_packet_median"],
        note="one warm target service; the rest are registered but idle",
    )
    for count in service_counts:
        samples = a3b_cell(count=count, seed=31)
        table.add(services=count, first_packet_median=summarize(samples).median)
    return table


# --------------------------------------------------------------------------
# A5 — multi-switch fabric overhead
# --------------------------------------------------------------------------


def a5_cell(label: str, requests: int, seed: int = 83) -> Dict[str, object]:
    """Warm/first-packet medians for one fabric flavour."""
    from repro.experiments.multiswitch import build_multiswitch_testbed

    if label == "single-switch":
        tb = build_testbed(seed=seed, n_clients=1, cluster_types=("docker",),
                           memory_idle_timeout_s=3600.0)
        switches = [tb.switch]
    else:
        tb = build_multiswitch_testbed(seed=seed, n_access_switches=1,
                                       clients_per_switch=1,
                                       memory_idle_timeout_s=3600.0)
        switches = [tb.switch] + list(tb.access_switches)
    svc = tb.register_catalog_service("nginx")
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], svc)
    tb.run(until=tb.sim.now + 60.0)
    assert warm.done and warm.exception is None

    warm_samples: List[float] = []
    first_samples: List[float] = []
    for _ in range(requests):
        # first packet: clear all flows + memory
        for switch in switches:
            switch.table.delete(Match(eth_type=0x0800, ip_proto=6))
        tb.memory.clear()
        request = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 5.0)
        assert request.done and request.result.ok
        first_samples.append(request.result.time_total)
        # immediately again: warm fast path
        request = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 5.0)
        assert request.done and request.result.ok
        warm_samples.append(request.result.time_total)
    programmed = sum(1 for switch in switches
                     if any(e.priority == 20 for e in switch.table.entries))
    return {"fabric": label,
            "warm_median": summarize(warm_samples).median,
            "first_packet_median": summarize(first_samples).median,
            "switches_programmed": programmed}


def a5_multiswitch_overhead(requests: int = 9) -> Table:
    """Transparent access across a 2-hop access/core fabric vs. the
    single-switch testbed: warm fast path and first-packet cost.

    The rewrite happens once at the ingress; transit switches forward on
    exact matches, so the warm path should cost only the extra link+switch
    latency, and the first packet one more flow-mod fan-out.
    """
    table = Table(
        title="A5 — Single switch vs. 2-hop access/core fabric (nginx, warm instance)",
        columns=["fabric", "warm_median", "first_packet_median", "switches_programmed"],
        note="first packet = no flows anywhere, FlowMemory cleared",
    )
    for label in ("single-switch", "access+core"):
        table.add(**a5_cell(label=label, requests=requests, seed=83))
    return table


# --------------------------------------------------------------------------
# A6 — transparent access at scale (ClientBank closed loop)
# --------------------------------------------------------------------------


def a6_cell(clients: int, window: int, seed: int = 97) -> Dict[str, object]:
    """Serve ``clients`` one-shot HTTP clients through one warm service.

    Every conversation is a *new* client IP — each pays the packet-in +
    dispatch slow path — while short switch/memory idle timeouts keep the
    flow table and FlowMemory bounded. Only simulation-derived quantities
    are returned (wall time and memory belong to the performance ledger,
    ``python -m ledger``, whose ``new_clients`` workload is this scenario —
    not to a deterministic CSV).
    """
    from repro.workloads.scale import attach_client_bank, run_client_bank

    tb = build_testbed(seed=seed, n_clients=1, cluster_types=("docker",),
                       switch_idle_timeout_s=0.5, memory_idle_timeout_s=2.0)
    svc = tb.register_catalog_service("nginx")
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], svc)
    tb.run(until=tb.sim.now + 60.0)
    assert warm.done and warm.exception is None

    bank = attach_client_bank(tb, svc, n_clients=clients, window=window)
    result = run_client_bank(tb, bank)
    summary = result.summary()
    return {"clients": clients,
            "window": window,
            "ok": result.ok_count,
            "failed": result.failed,
            "forwarded_frames": tb.switch.tx_frames,
            "packet_ins": tb.switch.packet_ins,
            "dispatches": tb.controller.stats["service_dispatches"],
            "mean_ms": round(summary.mean * 1000, 3),
            "p95_ms": round(summary.p95 * 1000, 3)}


def a6_scale(client_counts: Tuple[int, ...] = (1_000, 3_000, 10_000),
             window: int = 64) -> Table:
    """Closed-loop scale sweep: unique clients served through the
    transparent fast/slow path, with streaming (constant-memory) latency
    aggregation. Its cost per conversation — calls, retained blocks, peak
    RSS — is measured by the ledger's ``new_clients`` workload."""
    table = Table(
        title="A6 — Scale path: unique one-shot clients through one warm service",
        columns=["clients", "window", "ok", "failed", "forwarded_frames",
                 "packet_ins", "dispatches", "mean_ms", "p95_ms"],
        note="each conversation is a new client (full slow path); "
             "switch idle 0.5s, FlowMemory idle 2s",
    )
    for clients in client_counts:
        table.add(**a6_cell(clients=clients, window=window, seed=97))
    return table


# --------------------------------------------------------------------------
# A4 — flow-table occupancy vs. idle timeout
# --------------------------------------------------------------------------


def a4_cell(idle_timeout_s: float, n_services: int, total_requests: int,
            duration_s: float, trace_seed: int = 77,
            seed: int = 37) -> Dict[str, object]:
    """Trace replay under one switch idle timeout; returns the table row.

    The trace is resynthesized from ``trace_seed`` inside the cell so the
    cell stays self-contained (and cheaply picklable)."""
    trace = synthesize_bigflows_trace(
        seed=trace_seed, duration_s=duration_s, n_services=n_services,
        total_requests=total_requests, min_requests=10,
        noise_services=0).filtered(min_requests=10)
    outcome = replay_trace_through_controller(
        trace=trace, seed=seed, switch_idle_timeout_s=idle_timeout_s)
    flow_samples = outcome["flow_samples"]
    flows = np.array([f for _, f, _ in flow_samples], dtype=float)
    memory = np.array([m for _, _, m in flow_samples], dtype=float)
    tb: Testbed = outcome["testbed"]
    return {"idle_timeout_s": idle_timeout_s,
            "mean_flows": float(flows.mean()),
            "max_flows": int(flows.max()),
            "mean_memory": float(memory.mean()),
            "packet_ins": tb.switch.packet_ins,
            "deployments": len(outcome["deployments"])}


def a4_flowtable_occupancy(
    idle_timeouts_s: Tuple[float, ...] = (5.0, 10.0, 30.0),
    n_services: int = 12,
    total_requests: int = 360,
    duration_s: float = 120.0,
) -> Table:
    """Replay a scaled-down trace for several switch idle timeouts; report
    switch-table occupancy vs. FlowMemory size and packet-in load."""
    table = Table(
        title="A4 — Switch flow-table occupancy vs. idle timeout (trace replay)",
        columns=["idle_timeout_s", "mean_flows", "max_flows",
                 "mean_memory", "packet_ins", "deployments"],
        note=f"{n_services} services, {total_requests} requests over {duration_s:.0f}s",
    )
    for idle in idle_timeouts_s:
        table.add(**a4_cell(idle_timeout_s=idle, n_services=n_services,
                            total_requests=total_requests,
                            duration_s=duration_s, trace_seed=77, seed=37))
    return table

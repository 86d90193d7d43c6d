"""Hot-path benchmark harness — the repo's performance trajectory.

``python -m repro.bench`` runs the microbenchmarks that cover the packet
hot path (indexed flow-table lookup vs. the reference linear scan,
microflow-cached forwarding, flow churn through the exact-match index, raw
event-loop throughput, allocation-lean header rewrites, the memoized
controller slow path, the warm-cache hit rates under unrelated churn, the
prefix-trie service registry from 1k to 1M registered services, the
million-frame A6 scale scenario with peak memory, and the
domain-sharded lockstep scenario at 1/2/4 worker
processes) plus end-to-end experiment drivers, and writes a
machine-readable record (``BENCH_<series>.json``, see ``BENCH_SERIES``)
so future PRs can compare against it (``python -m repro.bench --compare
OLD.json``) instead of re-deriving a baseline.

Every benchmark body is a deterministic simulation; only the *measurement*
is host wall time / memory, which never feeds back into any simulated
result.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import platform
import subprocess
import sys
import time
import tracemalloc
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.metrics import perf

__all__ = [
    "bench_packet_path",
    "bench_microflow_forwarding",
    "bench_flow_churn",
    "bench_event_loop",
    "bench_packet_rewrite",
    "bench_controller_slow_path",
    "bench_warm_churn",
    "bench_a6_scale",
    "bench_verify",
    "bench_registry_lookup",
    "bench_domain_scaling",
    "bench_end_to_end",
    "run_benchmarks",
    "write_record",
]

#: The single versioned stamp for benchmark records: the PR series this
#: tree benchmarks as. Bump it (once, here) when a PR establishes a new
#: baseline — the default output name and the record's ``pr`` field both
#: derive from it, so they can never drift apart again.
BENCH_SERIES = 8
DEFAULT_OUT = f"BENCH_{BENCH_SERIES}.json"
#: v2 adds the ``meta`` block (git commit, flow-table entry counts)
SCHEMA = "repro-bench/2"

#: Peak *tracemalloc* budgets for the A6 scale scenario (MiB). The full
#: configuration pushes ≥1M forwarded frames from >100k unique clients and
#: must stay under its budget — the acceptance bar for the scale path.
A6_FULL_BUDGET_MB = 256.0
A6_SMOKE_BUDGET_MB = 96.0


def _now() -> float:
    return time.perf_counter()  # repro: noqa[REP001] host-side timing only


# ------------------------------------------------------------- fixtures


def _populated_table(entries: int) -> Any:
    """A flow table with ``entries`` same-priority exact-match rules —
    the adversarial case for the old linear scan (every miss walked all
    of them) and the representative one for the paper's data plane
    (per-session microflow rules installed by the controller)."""
    from repro.openflow import FlowEntry, FlowTable, Match, OutputAction
    from repro.simcore import Simulator

    sim = Simulator()
    table = FlowTable(sim)
    for i in range(entries):
        match = Match(eth_type=0x0800, ip_proto=6,
                      ipv4_src=f"10.{i // 65536 % 256}.{i // 256 % 256}.{i % 256}",
                      ipv4_dst=f"172.{i // 65536 % 256}.{i // 256 % 256}.{i % 256}",
                      tcp_dst=80)
        table.install(FlowEntry(match=match, priority=100,
                                actions=[OutputAction(1)]))
    return table


def _packet_fields(entries: int, stride: int = 7) -> List[Dict[str, Any]]:
    from repro.netsim.addresses import IPv4

    fields = []
    for i in range(0, entries, stride):
        fields.append({
            "in_port": 1, "eth_type": 0x0800, "ip_proto": 6,
            "ipv4_src": IPv4(f"10.{i // 65536 % 256}.{i // 256 % 256}.{i % 256}"),
            "ipv4_dst": IPv4(f"172.{i // 65536 % 256}.{i // 256 % 256}.{i % 256}"),
            "tcp_dst": 80,
        })
    return fields


# ----------------------------------------------------------- benchmarks


def bench_packet_path(entries: int = 1000, lookups: int = 1_000_000,
                      linear_lookups: int = 20_000) -> Dict[str, Any]:
    """Indexed ``FlowTable.lookup`` vs. the reference linear scan.

    The linear baseline is sampled with fewer iterations (at 1k entries it
    costs ~100 µs per call) and compared per-lookup; the acceptance bar
    for PR 4 is a ≥ 5× speedup.
    """
    table = _populated_table(entries)
    packets = _packet_fields(entries)
    n_packets = len(packets)

    started = _now()
    for i in range(lookups):
        table.lookup(packets[i % n_packets])
    indexed_s = _now() - started

    started = _now()
    for i in range(linear_lookups):
        table.lookup_linear(packets[i % n_packets])
    linear_s = _now() - started

    indexed_us = indexed_s / lookups * 1e6
    linear_us = linear_s / linear_lookups * 1e6
    return {
        "entries": entries,
        "lookups": lookups,
        "linear_lookups": linear_lookups,
        "indexed_us_per_lookup": round(indexed_us, 3),
        "linear_us_per_lookup": round(linear_us, 3),
        "speedup": round(linear_us / indexed_us, 1) if indexed_us else None,
    }


def _forwarding_switch(flows: int) -> Tuple[Any, Any, List[Any]]:
    """A switch with ``flows`` exact-match dst rules installed, plus one TCP
    frame per rule: ``(sim, switch, frames)``."""
    from repro.netsim import ETH_TYPE_IP, EthernetFrame, IPv4Packet, TCPSegment, ip, mac
    from repro.netsim.packet import IP_PROTO_TCP
    from repro.openflow import FlowEntry, Match, OutputAction
    from repro.openflow.switch import OpenFlowSwitch
    from repro.simcore import Simulator

    sim = Simulator()
    switch = OpenFlowSwitch(sim, "bench-sw", dpid=1)
    frames = []
    for i in range(flows):
        dst = f"172.16.{i // 256 % 256}.{i % 256}"
        switch.table.install(FlowEntry(
            match=Match(eth_type=0x0800, ip_proto=6, ipv4_dst=dst, tcp_dst=80),
            priority=100, actions=[OutputAction(1)]))
        seg = TCPSegment(src_port=40000, dst_port=80)
        pkt = IPv4Packet(src=ip("10.0.0.1"), dst=ip(dst), proto=IP_PROTO_TCP,
                         payload=seg)
        frames.append(EthernetFrame(src=mac(1), dst=mac(2),
                                    ethertype=ETH_TYPE_IP, payload=pkt))
    return sim, switch, frames


def bench_microflow_forwarding(flows: int = 256, packets: int = 200_000,
                               drain_every: int = 10_000) -> Dict[str, Any]:
    """Full ``OpenFlowSwitch.on_frame`` cost with a warm microflow cache.

    Replays TCP frames over ``flows`` installed exact-match rules; after
    the first round every packet is a microflow hit. The event queue is
    drained periodically so the forwarding events don't accumulate."""
    sim, switch, frames = _forwarding_switch(flows)

    started = _now()
    for i in range(packets):
        switch.on_frame(2, frames[i % flows])
        if i % drain_every == drain_every - 1:
            sim.run()
    sim.run()
    elapsed = _now() - started
    return {
        "flows": flows,
        "packets": packets,
        "us_per_packet": round(elapsed / packets * 1e6, 3),
        "microflow_hit_rate": round(switch.microflow_hit_rate, 4),
    }


def bench_flow_churn(resident: int = 1000, cycles: int = 20_000) -> Dict[str, Any]:
    """Install/strict-delete cycles against a full table.

    Exercises exactly what the exact-match index fixed: install-overlap
    detection and ``OFPFC_DELETE_STRICT``, both previously O(n) scans."""
    from repro.openflow import FlowEntry, Match, OutputAction

    table = _populated_table(resident)
    churn_match = Match(eth_type=0x0800, ip_proto=6,
                        ipv4_src="192.168.0.1", ipv4_dst="192.168.1.1",
                        tcp_dst=443)
    started = _now()
    for _ in range(cycles):
        table.install(FlowEntry(match=churn_match, priority=50,
                                actions=[OutputAction(2)]))
        table.delete(churn_match, strict=True, priority=50)
    elapsed = _now() - started
    return {
        "resident_entries": resident,
        "cycles": cycles,
        "us_per_cycle": round(elapsed / cycles * 1e6, 3),
    }


def bench_event_loop(events: int = 100_000) -> Dict[str, Any]:
    """Schedule + run ``events`` no-op events through ``Simulator.run``."""
    from repro.simcore import Simulator

    sim = Simulator()
    callback: Callable[[], None] = lambda: None
    started = _now()
    for i in range(events):
        sim.schedule(i * 1e-6, callback)
    sim.run()
    elapsed = _now() - started
    assert sim.events_executed == events
    return {
        "events": events,
        "us_per_event": round(elapsed / events * 1e6, 3),
    }


# --------------------------------------------- PR 5: allocation benchmarks


def bench_packet_rewrite(packets: int = 50_000,
                         timing_rounds: int = 200_000) -> Dict[str, Any]:
    """Per-packet allocation bytes and wall time of a 4-field NAT rewrite
    through the fused batch rewrite in
    :func:`repro.openflow.actions.apply_actions_multi`.

    The action list is compiled once, outside both loops — a flow entry
    compiles at construction and the switch executes the program per packet.

    Allocation is measured with tracemalloc by *retaining* every frame the
    rewrite produces, so the byte count is the true per-packet allocation
    churn, not the net survivor size.
    """
    from repro.netsim import ETH_TYPE_IP, EthernetFrame, IPv4Packet, TCPSegment, ip, mac
    from repro.netsim.packet import IP_PROTO_TCP
    from repro.openflow.actions import (
        ActionProgram,
        OutputAction,
        SetFieldAction,
        apply_actions_multi,
    )

    # The downstream NAT rewrite the controller installs per client flow.
    nat_fields: List[Tuple[str, Any]] = [
        ("ipv4_src", ip("198.51.100.1")),
        ("tcp_src", 80),
        ("eth_src", mac("02:ed:9e:00:00:01")),
        ("eth_dst", mac("02:ba:00:00:00:01")),
    ]
    program = ActionProgram(
        [SetFieldAction(f, v) for f, v in nat_fields] + [OutputAction(1)])

    seg = TCPSegment(src_port=8080, dst_port=40000, payload_bytes=615)
    pkt = IPv4Packet(src=ip("10.0.0.7"), dst=ip("10.64.0.2"),
                     proto=IP_PROTO_TCP, payload=seg)
    frame = EthernetFrame(src=mac(3), dst=mac(4), ethertype=ETH_TYPE_IP, payload=pkt)

    gc.collect()
    debris: List[Any] = []
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    for _ in range(packets):
        for out_frame, _port in apply_actions_multi(frame, program):
            debris.append(out_frame)
    fused_bytes = (tracemalloc.get_traced_memory()[0] - base) / packets
    tracemalloc.stop()
    del debris

    started = _now()
    for _ in range(timing_rounds):
        apply_actions_multi(frame, program)
    fused_s = _now() - started

    return {
        "packets": packets,
        "set_fields": len(nat_fields),
        "bytes_per_packet_fused": round(fused_bytes, 1),
        "us_per_rewrite_fused": round(fused_s / timing_rounds * 1e6, 3),
    }


def _slow_path_testbed() -> Tuple[Any, Any]:
    """A warm testbed plus a reusable packet-in event for its client's SYN."""
    from repro.experiments.topologies import build_testbed
    from repro.openflow import extract_fields
    from repro.openflow.constants import OFP_NO_BUFFER
    from repro.openflow.messages import PacketIn
    from repro.ryuapp.events import EventOFPPacketIn

    tb = build_testbed(seed=51, n_clients=1, cluster_types=("docker",),
                       memory_idle_timeout_s=3600.0)
    svc = tb.register_catalog_service("nginx")
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], svc)
    tb.run(until=tb.sim.now + 60.0)
    assert warm.done and warm.exception is None
    # One real request seeds the host table and the FlowMemory entry, so
    # every synthesized packet-in below re-walks the memorized slow path
    # (the re-miss case A2 measures) without a dispatcher run.
    request = tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
    tb.run(until=tb.sim.now + 5.0)
    assert request.done and request.result.ok

    from repro.netsim import ETH_TYPE_IP, EthernetFrame, IPv4Packet, TCPSegment
    from repro.netsim.packet import IP_PROTO_TCP, TCPFlags

    client = tb.clients[0]
    seg = TCPSegment(src_port=40001, dst_port=svc.service_id.port,
                     flags=TCPFlags.SYN)
    pkt = IPv4Packet(src=client.ip, dst=svc.service_id.addr,
                     proto=IP_PROTO_TCP, payload=seg)
    frame = EthernetFrame(src=client.mac, dst=tb.controller.cfg.vgw_mac,
                          ethertype=ETH_TYPE_IP, payload=pkt, frame_id=1)
    msg = PacketIn(buffer_id=OFP_NO_BUFFER, in_port=1, frame=frame,
                   fields=extract_fields(frame, 1))
    msg.datapath = tb.manager.datapaths[tb.switch.dpid]  # type: ignore[attr-defined]
    return tb, EventOFPPacketIn(msg)


def bench_controller_slow_path(packet_ins: int = 20_000,
                               drain_every: int = 1_000) -> Dict[str, Any]:
    """Controller cost per repeated-service packet-in.

    Times ``TransparentEdgeController.on_packet_in`` directly (no control
    channel, no AppManager queueing) for a SYN whose (client, service) pair
    is already in FlowMemory — the slow path minus the dispatcher: the
    registry probe, host lookups, and the whole match/action install plan
    come from the revalidating memos. Events produced by the handler
    (flow-mods, packet-outs) are drained outside the timed sections.
    """
    tb, ev = _slow_path_testbed()
    handler = tb.controller.on_packet_in
    elapsed = 0.0
    for start in range(0, packet_ins, drain_every):
        burst = min(drain_every, packet_ins - start)
        started = _now()
        for _ in range(burst):
            handler(ev)
        elapsed += _now() - started
        tb.run(until=tb.sim.now + 5.0)
    return {
        "packet_ins": packet_ins,
        "us_per_packetin_memo": round(elapsed / packet_ins * 1e6, 3),
        "plan_hits": tb.controller.stats["slow_path_plan_hits"],
        "plan_misses": tb.controller.stats["slow_path_plan_misses"],
    }


def bench_warm_churn(packet_ins: int = 20_000, drain_every: int = 1_000,
                     repeats: int = 3, mf_flows: int = 256,
                     mf_packets: int = 200_000,
                     mf_churn_every: int = 64) -> Dict[str, Any]:
    """Warm-cache hit rates under *unrelated* churn.

    Both halves interleave hot traffic with mutations that are irrelevant
    to it; per-key revalidation must keep the caches answering:

    * **Controller half** — the memoized slow path of
      :func:`bench_controller_slow_path`, but between every timed
      packet-in an unrelated cloud-prefix service registers/deregisters
      and a foreign client's FlowMemory entry is overwritten. The install
      plan's per-key tokens (registry token, FlowMemory version, host
      version, cluster generation) are all untouched, so every packet-in
      runs the memo's *revalidate* tier and the plan stays warm.
    * **Switch half** — :func:`bench_microflow_forwarding`'s loop, but an
      unrelated exact-match rule installs+deletes every
      ``mf_churn_every`` packets. Surgical eviction leaves the cached
      microflows alone.

    Each timed half runs ``repeats`` times from a fresh testbed and reports
    the best (timeit-style minimum — the work is deterministic, the spread
    is scheduler noise); hit/miss counters are identical across repeats.
    """
    from repro.netsim.addresses import IPv4
    from repro.workloads.cloudprefix import (
        synth_cloud_prefixes, synth_service_ids, synthetic_service)

    repeats = max(1, repeats)
    out: Dict[str, Any] = {"packet_ins": packet_ins, "repeats": repeats}
    # Churn identities live in the synthetic cloud supernets (52/10, 20.64/10,
    # ...), disjoint from the testbed's TEST-NET-2 service and client ranges:
    # the churn is *provably* unrelated to the hot flow.
    churn_sid = synth_service_ids(12, 1, synth_cloud_prefixes(seed=11,
                                                              count=16))[0]
    best = float("inf")
    hits = misses = 0
    for _rep in range(repeats):
        tb, ev = _slow_path_testbed()
        ctrl = tb.controller
        foreign_client = IPv4("198.18.0.1")  # RFC 2544 range: not a host
        flow = next(iter(ctrl.memory._flows.values()))
        hot_sid = flow.key[1]
        # Seed the foreign FlowMemory entry once; the churn loop then
        # *overwrites* it in place — every overwrite bumps the global
        # generation and the foreign key's version without scheduling a
        # fresh idle timer per op, which would grow the event heap.
        ctrl.memory.remember(foreign_client, hot_sid, flow.cluster,
                             flow.endpoint)
        hits0 = ctrl.stats["slow_path_plan_hits"]
        misses0 = ctrl.stats["slow_path_plan_misses"]
        handler = ctrl.on_packet_in
        elapsed = 0.0
        registered = False
        # GC pauses land in whichever timed section they like; park
        # collection during the bursts and catch up at the (untimed)
        # drain points.
        gc.disable()
        try:
            for start in range(0, packet_ins, drain_every):
                burst = min(drain_every, packet_ins - start)
                for _ in range(burst):
                    if registered:
                        ctrl.registry.deregister(churn_sid)
                    else:
                        ctrl.registry.register_service(
                            synthetic_service(churn_sid))
                    registered = not registered
                    ctrl.memory.remember(foreign_client, hot_sid,
                                         flow.cluster, flow.endpoint)
                    started = _now()
                    handler(ev)
                    elapsed += _now() - started
                tb.run(until=tb.sim.now + 5.0)
                gc.collect()
        finally:
            gc.enable()
        best = min(best, elapsed)
        hits = ctrl.stats["slow_path_plan_hits"] - hits0
        misses = ctrl.stats["slow_path_plan_misses"] - misses0
    out["us_per_packetin_fine"] = round(best / packet_ins * 1e6, 3)
    out["memo_hit_pct_fine"] = round(hits / max(1, hits + misses) * 100.0, 2)

    from repro.openflow import FlowEntry, Match, OutputAction

    best = float("inf")
    for _rep in range(repeats):
        sim, switch, frames = _forwarding_switch(mf_flows)
        churn_match = Match(eth_type=0x0800, ip_proto=6,
                            ipv4_src="192.0.2.9", ipv4_dst="192.0.2.10",
                            tcp_dst=443)
        started = _now()
        for i in range(mf_packets):
            if i % mf_churn_every == 0:
                switch.table.install(FlowEntry(match=churn_match, priority=50,
                                               actions=[OutputAction(2)]))
                switch.table.delete(churn_match, strict=True, priority=50)
            switch.on_frame(2, frames[i % mf_flows])
            if i % 10_000 == 9_999:
                sim.run()
        sim.run()
        best = min(best, _now() - started)
    out["microflow"] = {
        "flows": mf_flows, "packets": mf_packets,
        "churn_every": mf_churn_every,
        "us_per_packet_surgical": round(best / mf_packets * 1e6, 3),
        "hit_pct_surgical": round(switch.microflow_hit_rate * 100.0, 2),
        "mf_evictions_surgical": switch.mf_evictions,
        "mf_flushes_surgical": switch.mf_flushes,
    }
    return out


def bench_a6_scale(clients: int = 101_000, window: int = 64,
                   budget_mb: float = A6_FULL_BUDGET_MB) -> Dict[str, Any]:
    """The A6 scenario at acceptance scale, with peak-memory accounting.

    Serves ``clients`` unique one-shot clients (10 switch-forwarded frames
    per conversation) through one warm service and records the peak Python
    heap (tracemalloc, the budgeted number) and peak process RSS
    (``getrusage``, informational — it includes tracemalloc's own ~2×
    bookkeeping overhead and never shrinks).
    """
    import resource

    from repro.experiments.parta import a6_cell

    rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracemalloc.start()
    started = _now()
    row = a6_cell(clients=clients, window=window, seed=97)
    wall_s = _now() - started
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = peak / 1e6
    return {
        "clients": clients,
        "window": window,
        "ok": row["ok"],
        "failed": row["failed"],
        "forwarded_frames": row["forwarded_frames"],
        "mean_ms": row["mean_ms"],
        "p95_ms": row["p95_ms"],
        "wall_s": round(wall_s, 1),
        "frames_per_s": round(float(row["forwarded_frames"]) / wall_s, 0),  # type: ignore[arg-type]
        "peak_tracemalloc_mb": round(peak_mb, 1),
        "peak_rss_mb": round(peak_rss_kb / 1024.0, 1),
        "rss_before_mb": round(rss_before_kb / 1024.0, 1),
        "budget_mb": budget_mb,
        "within_budget": peak_mb <= budget_mb,
    }


def _synthetic_snapshot(rules: int, switches: int = 4) -> Any:
    """A frozen snapshot with ``rules`` exact-match entries spread over
    ``switches`` independent switches — no services, so the verifier cost
    is pure class enumeration + symbolic tracing against table size."""
    from repro.netsim.addresses import IPv4, MAC
    from repro.openflow.actions import OutputAction
    from repro.openflow.constants import OFPP_CONTROLLER
    from repro.openflow.match import Match
    from repro.verify.snapshot import (
        ControlView, HostView, NetworkSnapshot, RuleView, SwitchView)

    switch_views = []
    hosts = []
    per_switch = max(1, rules // switches)
    for dpid in range(1, switches + 1):
        rule_views = [RuleView(match=Match(), priority=0, seq=1, cookie=0,
                               flags=0,
                               actions=(OutputAction(OFPP_CONTROLLER),))]
        for i in range(per_switch):
            match = Match(eth_type=0x0800, ip_proto=6,
                          ipv4_src=f"10.{dpid}.{i // 256 % 256}.{i % 256}",
                          ipv4_dst=f"172.{dpid}.{i // 256 % 256}.{i % 256}",
                          tcp_dst=80)
            rule_views.append(RuleView(match=match, priority=100, seq=i + 2,
                                       cookie=0, flags=0,
                                       actions=(OutputAction(1),)))
        switch_views.append(SwitchView(
            dpid=dpid, name=f"s{dpid}", generation=per_switch,
            rules=tuple(rule_views), stale_cache=()))
        hosts.append(HostView(ip=IPv4(f"192.168.{dpid}.1"), dpid=dpid,
                              port_no=1, mac=MAC(f"02:00:00:00:{dpid:02x}:01")))
    control = ControlView(alive=True, epoch=1, use_flow_memory=False,
                          vgw_ip=IPv4("10.255.255.254"),
                          vgw_mac=MAC("02:ed:9e:00:00:01"),
                          services=(), live_endpoints=(), memory=(),
                          cookie_cluster=())
    return NetworkSnapshot(switches=tuple(switch_views), adjacency=(),
                           hosts=tuple(hosts), control=control)


def _touch_one_switch(snapshot: Any) -> Any:
    """A copy of ``snapshot`` with one switch's table mutated (one extra
    rule, generation bumped) — the incremental checker's common case."""
    from repro.openflow.actions import OutputAction
    from repro.openflow.match import Match
    from repro.verify.snapshot import RuleView

    view = snapshot.switches[0]
    extra = RuleView(
        match=Match(eth_type=0x0800, ip_proto=6, ipv4_src="10.250.0.1",
                    ipv4_dst="172.250.0.1", tcp_dst=80),
        priority=100, seq=len(view.rules) + 2, cookie=0, flags=0,
        actions=(OutputAction(1),))
    touched = dataclasses.replace(
        view, rules=view.rules + (extra,), generation=view.generation + 1)
    return dataclasses.replace(
        snapshot, switches=(touched,) + snapshot.switches[1:])


def bench_verify(sizes: Tuple[int, ...] = (1_000, 10_000, 100_000),
                 switches: int = 4) -> Dict[str, Any]:
    """Full vs incremental data-plane verification cost vs table size.

    For each size: one cold full check, one incremental re-check of the
    unchanged snapshot (pure cache-hit path), and one incremental check
    after a single-switch table mutation (the steady-state case — only the
    touched switch's classes re-trace). docs/verification.md describes the
    cache model; ``tests/verify`` proves incremental output is
    byte-identical to the full checker's.
    """
    from repro.verify import IncrementalVerifier, verify_snapshot

    out: Dict[str, Any] = {"switches": switches, "sizes": {}}
    for size in sizes:
        snapshot = _synthetic_snapshot(size, switches)
        started = _now()
        full_report = verify_snapshot(snapshot)
        full_s = _now() - started

        verifier = IncrementalVerifier()
        verifier.verify(snapshot)  # populate caches (timed run is next)
        started = _now()
        unchanged_report = verifier.verify(snapshot)
        unchanged_s = _now() - started

        touched = _touch_one_switch(snapshot)
        started = _now()
        touched_report = verifier.verify(touched)
        touched_s = _now() - started

        classes = full_report.classes_checked
        out["sizes"][str(size)] = {
            "rules": full_report.rules_checked,
            "classes": classes,
            "violations": len(full_report.violations)
                          + len(unchanged_report.violations)
                          + len(touched_report.violations),
            "full_ms": round(full_s * 1e3, 2),
            "incremental_unchanged_ms": round(unchanged_s * 1e3, 2),
            "incremental_touched_ms": round(touched_s * 1e3, 2),
            "us_per_class_full": round(full_s / classes * 1e6, 3),
            "classes_reused_touched": verifier.classes_reused,
            "classes_traced_touched": verifier.classes_traced,
            "speedup_unchanged": round(full_s / unchanged_s, 1)
                                 if unchanged_s > 0 else float("inf"),
        }
    return out


def bench_registry_lookup(
    sizes: Tuple[int, ...] = (1_000, 10_000, 100_000, 1_000_000),
    lookups: int = 200_000,
    churn_cycles: int = 2_000,
    subnet_services: int = 256,
) -> Dict[str, Any]:
    """Packet-in decision cost vs. registered service count (ROADMAP 3).

    Populates a :class:`~repro.core.registry.ServiceRegistry` with
    cloud-prefix-shaped synthetic services (plus ``subnet_services``
    subnet-registered prefixes) and measures, per size tier:

    * ``us_per_decision_hit`` — ``lookup_prefix`` on registered host
      services: THE packet-in decision. The acceptance bar is that this
      stays *flat within 2×* from the smallest to the largest tier — no
      linear blow-up with registry size (``flat_within_2x`` at the top).
    * ``us_per_lpm_hit`` — covered (non-exact) addresses resolved through
      the trie's longest-prefix walk;
    * ``us_per_miss`` — unregistered destinations (the common plain-L3
      case; negative answers are what the controller's memo caches);
    * ``us_per_register`` / ``us_per_churn_op`` — registration bulk rate
      and steady-state deregister+re-register churn.
    """
    from random import Random

    from repro.core.registry import ServiceRegistry
    from repro.netsim.addresses import IPv4
    from repro.workloads.cloudprefix import (
        bulk_register,
        subnet_service,
        synth_cloud_prefixes,
        synth_service_ids,
        synthetic_service,
    )

    out: Dict[str, Any] = {"sizes": {}}
    decision_costs: Dict[int, float] = {}
    for size in sizes:
        # Prefix count grows with the tier but is capped: the provider
        # supernets hold ~44M addresses and the weighted length mix averages
        # ~4k addresses per prefix, so 4096 prefixes stays comfortably
        # inside while still spreading 1M services cloud-like.
        prefixes = synth_cloud_prefixes(seed=5,
                                        count=max(16, min(size // 64, 4_096)))
        service_ids = synth_service_ids(6, size, prefixes, udp_share=0.2)
        registry = ServiceRegistry()

        # Start each tier with fresh collector counters: a full collection
        # of the heap earlier benchmarks left costs more than the smallest
        # tier's whole registration (tens of ms against ~16 ms), and whether
        # one falls due here depends only on how much they allocated.
        gc.collect()
        started = _now()
        bulk_register(registry, service_ids)
        register_s = _now() - started
        for prefix in prefixes[:subnet_services]:
            candidate = subnet_service(prefix)
            # A sampled host id can land exactly on the prefix's network
            # address and port — identity is the triple, so skip the clash.
            if candidate.service_id not in registry:
                registry.register_service(candidate)

        rng = Random(7)
        sample = [service_ids[rng.randrange(size)] for _ in range(2_000)]
        rounds = max(1, lookups // len(sample))

        # THE decision: registered (addr, port, protocol) -> service. The
        # fastest round, not the total: a round is a fraction of a
        # millisecond, so one preemption anywhere in the total would read as
        # a tier that is twice as slow.
        round_times = []
        for _ in range(rounds):
            started = _now()
            for sid in sample:
                registry.lookup_prefix(sid.addr, sid.port, sid.protocol)
            round_times.append(_now() - started)
        decision_costs[size] = min(round_times) / len(sample) * 1e6
        n_hits = rounds * len(sample)

        # Covered-but-not-exact addresses: the trie LPM walk (offset >= 1
        # so the probe never coincides with the subnet service's own /32
        # identity and short-circuits on the exact dict).
        covered = []
        for prefix in prefixes[:subnet_services]:
            span = 1 << (32 - prefix.prefix_len)
            covered.append(IPv4(prefix.network.value + 1
                                + rng.randrange(max(1, span - 1))))
        started = _now()
        for _ in range(max(1, n_hits // len(covered) // 4)):
            for addr in covered:
                registry.lookup_prefix(addr, 443, "TCP")
        lpm_s = _now() - started
        n_lpm = max(1, n_hits // len(covered) // 4) * len(covered)

        # Unregistered destinations (TEST-NET-3: outside every supernet).
        misses = [IPv4(f"203.0.113.{i % 256}") for i in range(256)]
        started = _now()
        for _ in range(max(1, n_hits // len(misses) // 4)):
            for addr in misses:
                registry.lookup_prefix(addr, 80, "TCP")
        miss_s = _now() - started
        n_miss = max(1, n_hits // len(misses) // 4) * len(misses)

        # Steady-state churn: deregister + re-register a rotating sample.
        started = _now()
        for i in range(churn_cycles):
            sid = service_ids[(i * 127) % size]
            service = registry.deregister(sid)
            assert service is not None
            registry.register_service(synthetic_service(sid))
        churn_s = _now() - started

        out["sizes"][str(size)] = {
            "registered": len(registry),
            "trie_prefixes": len(registry._trie),
            "trie_nodes": registry._trie.node_count(),
            "us_per_register": round(register_s / size * 1e6, 3),
            "us_per_decision_hit": round(decision_costs[size], 3),
            "us_per_lpm_hit": round(lpm_s / n_lpm * 1e6, 3),
            "us_per_miss": round(miss_s / n_miss * 1e6, 3),
            "us_per_churn_op": round(churn_s / (2 * churn_cycles) * 1e6, 3),
        }

    smallest, largest = min(decision_costs), max(decision_costs)
    ratio = decision_costs[largest] / decision_costs[smallest]
    out["decision_cost_ratio_max_vs_min"] = round(ratio, 3)
    out["flat_within_2x"] = ratio <= 2.0
    return out


def bench_domain_scaling(n_domains: int = 4, clients_local: int = 600,
                         clients_remote: int = 150, window: int = 64,
                         worker_counts: Tuple[int, ...] = (1, 2, 4),
                         ) -> Dict[str, Any]:
    """Aggregate event throughput of the sharded multi-ingress scenario
    (A7's partition) at 1/2/4 domain worker processes.

    Two things are measured: that the partition *scales* (wall-clock
    speedup of the same logical run over more workers — bounded by the
    host's core count, recorded as ``cpu_count``) and that it stays
    *deterministic* (the rendered table is digest-identical at every
    worker count — ``results_identical``). CI gates on both.
    """
    import hashlib
    import os

    from repro.experiments.domains import run_sharded_ingress, sharded_table
    from repro.metrics import table_to_csv

    out: Dict[str, Any] = {
        "n_domains": n_domains,
        "clients_local": clients_local,
        "clients_remote": clients_remote,
        "window": window,
        "cpu_count": os.cpu_count(),
        "runs": {},
    }
    digests = set()
    walls: Dict[int, float] = {}
    for processes in worker_counts:
        started = _now()
        outcome = run_sharded_ingress(
            n_domains=n_domains, clients_local=clients_local,
            clients_remote=clients_remote, window=window,
            processes=processes)
        wall = _now() - started
        csv = table_to_csv(sharded_table(outcome, clients_local,
                                         clients_remote))
        digests.add(hashlib.sha256(csv.encode("utf-8")).hexdigest())
        walls[processes] = wall
        out["runs"][str(processes)] = {
            "wall_s": round(wall, 3),
            "events": outcome.total_events,
            "epochs": outcome.epochs,
            "envelopes": outcome.envelopes_exchanged,
            "events_per_s": round(outcome.total_events / wall),
        }
    base = walls[worker_counts[0]]
    for processes in worker_counts[1:]:
        out[f"speedup_{processes}_vs_1"] = round(base / walls[processes], 3)
    out["results_identical"] = len(digests) == 1
    return out


def bench_end_to_end() -> Dict[str, Any]:
    """Wall time of representative experiment drivers (serial, in-process),
    with the hot-path work they cost (from :mod:`repro.metrics.perf`)."""
    from repro.experiments import parta, partb

    drivers: List[Any] = [
        ("parta.a3_controller_scaling", parta.a3_controller_scaling),
        ("parta.a4_flowtable_occupancy", parta.a4_flowtable_occupancy),
        ("partb.fig11_scale_up", lambda: partb.fig11_scale_up(repeats=7)),
    ]
    out: Dict[str, Any] = {}
    for name, driver in drivers:
        before = perf.snapshot()
        started = _now()
        driver()
        elapsed = _now() - started
        counters = perf.delta(before)
        out[name] = {
            "wall_s": round(elapsed, 3),
            "sim_events": counters.events_executed,
            "flow_lookups": counters.flow_lookups,
            "microflow_hit_rate": round(counters.microflow_hit_rate, 4),
        }
    return out


# -------------------------------------------------------------- harness


def _git_commit() -> Optional[str]:
    """The current commit hash, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):  # pragma: no cover
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def _git_dirty() -> Optional[bool]:
    """Whether the working tree had uncommitted changes when the record
    was generated (None outside a git checkout) — a committed baseline
    produced from a dirty tree is not reproducible from its commit.

    Bench records themselves (``BENCH_*.json``) are exempt: regenerating a
    record into the checkout is the one mutation every baseline run makes,
    and it cannot influence the numbers being recorded.
    """
    try:
        out = subprocess.run(["git", "status", "--porcelain"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):  # pragma: no cover
        return None
    if out.returncode != 0:
        return None
    relevant = []
    for line in out.stdout.splitlines():
        # porcelain v1: two status columns, a space, then the path
        path = line[3:].split(" -> ")[-1].strip().strip('"')
        name = path.rsplit("/", 1)[-1]
        if name.startswith("BENCH_") and name.endswith(".json"):
            continue
        if line.strip():
            relevant.append(line)
    return bool(relevant)


def run_benchmarks(smoke: bool = False) -> Dict[str, Any]:
    """Run the whole suite; ``smoke`` shrinks iteration counts for CI."""
    if smoke:
        packet = bench_packet_path(lookups=50_000, linear_lookups=2_000)
        microflow = bench_microflow_forwarding(packets=20_000)
        churn = bench_flow_churn(cycles=2_000)
        loop = bench_event_loop(events=20_000)
        rewrite = bench_packet_rewrite(packets=10_000, timing_rounds=20_000)
        slow_path = bench_controller_slow_path(packet_ins=2_000)
        warm_churn = bench_warm_churn(packet_ins=2_000, repeats=2,
                                      mf_packets=20_000)
        a6 = bench_a6_scale(clients=2_000, budget_mb=A6_SMOKE_BUDGET_MB)
        verify = bench_verify(sizes=(500, 2_000))
        registry = bench_registry_lookup(sizes=(1_000, 10_000),
                                         lookups=20_000, churn_cycles=500)
        domains = bench_domain_scaling()
    else:
        packet = bench_packet_path()
        microflow = bench_microflow_forwarding()
        churn = bench_flow_churn()
        loop = bench_event_loop()
        rewrite = bench_packet_rewrite()
        slow_path = bench_controller_slow_path()
        warm_churn = bench_warm_churn()
        a6 = bench_a6_scale()
        verify = bench_verify()
        registry = bench_registry_lookup()
        domains = bench_domain_scaling(clients_local=1200, clients_remote=300)
    return {
        "schema": SCHEMA,
        "pr": BENCH_SERIES,
        "smoke": smoke,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "generated_unix_s": round(time.time(), 1),  # repro: noqa[REP001] host-side stamp
        # repro-bench/2 metadata: which tree produced the record, and the
        # flow-table population each table-driven benchmark ran against.
        "meta": {
            "git_commit": _git_commit(),
            "git_dirty": _git_dirty(),
            "flow_table_entries": {
                "packet_path": packet["entries"],
                "microflow_forwarding": microflow["flows"],
                "flow_churn": churn["resident_entries"],
            },
        },
        "benchmarks": {
            "packet_path": packet,
            "microflow_forwarding": microflow,
            "flow_churn": churn,
            "event_loop": loop,
            "packet_rewrite": rewrite,
            "controller_slow_path": slow_path,
            "warm_churn": warm_churn,
            "a6_scale": a6,
            "verify": verify,
            "registry_lookup": registry,
            "domain_scaling": domains,
            "end_to_end": bench_end_to_end(),
        },
    }


def write_record(record: Dict[str, Any], path: str = DEFAULT_OUT) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=False)
        handle.write("\n")

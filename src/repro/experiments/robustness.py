"""Robustness under injected failures (R1–R4).

The paper's prototype was only ever evaluated on a healthy testbed; these
drivers measure what the *platform promise* — the client never notices the
edge — costs to keep when the edge misbehaves (docs/faults.md):

* **R1** — availability and time_total percentiles as the injected image
  pull failure rate sweeps 0–20%. Every request is forced cold (images
  deleted between rounds) so each one exercises the full Pull/Create/
  Scale-Up pipeline against the armed fault plane. A request counts as
  *answered* when the client gets an HTTP 200 — whether from the edge after
  retries or from the cloud origin after the deployment engine gave up.
* **R2** — the circuit-breaker ablation: one edge cluster suffers a timed
  outage while clients keep requesting. Without the breaker every request
  during the outage pays the full retry-with-backoff latency before
  degrading to the cloud; with it, the cluster is excluded after
  ``failure_threshold`` consecutive failures and requests go straight to
  the cloud path until a probation probe succeeds. The tail (p99) shows
  the difference.
* **R3** — controller crash/warm-restart chaos: seeded crashes land while a
  :class:`~repro.workloads.scale.ClientBank` drives traffic. A restarted
  controller remembers nothing; it must reconcile from switch flow state
  (docs/faults.md). Measured: liveness detection, resync duration,
  flows reconciled vs. GC'd, packet-ins lost, and two invariants that must
  read 0 — clients permanently blackholed and flows serving a dead instance
  after the last resync.
* **R4** — mixed chaos sweep: per seed, a :class:`FaultSchedule` of
  controller crashes, control-channel outages, and client-link flaps plays
  over bank traffic. Same invariants as R3; byte-identical per seed (the
  chaos layer draws only from the seeded driver RNG).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.resilience import BreakerConfig, RetryPolicy
from repro.experiments.topologies import Testbed, build_testbed
from repro.metrics import Table
from repro.metrics.failures import snapshot_failures
from repro.openflow import Match
from repro.simcore.faults import (
    FaultSchedule,
    channel_outage,
    cluster_outage,
    controller_outage,
    link_flap,
)
from repro.workloads.scale import attach_client_bank, run_client_bank


def _run_until_done(tb: Testbed, process, cap_s: float, step_s: float = 1.0) -> bool:
    """Advance the simulation until ``process`` completes (True) or ``cap_s``
    simulated seconds passed without completion (False — a hung client)."""
    deadline = tb.sim.now + cap_s
    while not process.done and tb.sim.now < deadline:
        tb.run(until=min(deadline, tb.sim.now + step_s))
    return process.done


def _percentiles(samples: List[float]) -> Tuple[float, float]:
    if not samples:
        return 0.0, 0.0
    arr = np.asarray(samples, dtype=float)
    return float(np.percentile(arr, 50)), float(np.percentile(arr, 99))


# --------------------------------------------------------------------------
# R1 — availability vs. injected pull-failure rate
# --------------------------------------------------------------------------


def r1_availability_vs_pull_failures(
        rates: Tuple[float, ...] = (0.0, 0.05, 0.10, 0.20),
        rounds: int = 40,
        seed: int = 7,
        retry_policy: Optional[RetryPolicy] = None) -> Table:
    """Cold-start a service ``rounds`` times per pull-failure rate; count
    how many requests are still answered (edge after retries, or cloud)."""
    table = Table(
        title="R1 — Availability vs. injected pull-failure rate (cold starts)",
        columns=["pull_fail_rate", "requests", "answered", "hung",
                 "availability", "p50_s", "p99_s",
                 "retries", "gave_up", "cloud_fallbacks"],
        note="answered = HTTP 200 from edge (incl. after retries) or cloud; "
             "every round deletes images so each request pulls again",
    )
    for rate in rates:
        table.add(**r1_rate_cell(rate=rate, rounds=rounds, seed=seed,
                                 retry_policy=retry_policy))
    return table


def r1_rate_cell(rate: float, rounds: int, seed: int = 7,
                 retry_policy: Optional[RetryPolicy] = None) -> dict:
    """One pull-failure rate of the R1 sweep, cold-started ``rounds`` times."""
    tb = build_testbed(
        seed=seed, n_clients=4, cluster_types=("docker",),
        use_private_registry=True,
        retry_policy=retry_policy,
        faults={"registry.pull": rate} if rate else None)
    svc = tb.register_catalog_service("nginx", with_cloud_origin=True)
    cluster = tb.clusters["docker-egs"]

    samples: List[float] = []
    answered = 0
    hung = 0
    for index in range(rounds):
        request = tb.client(index % len(tb.timed_clients)).fetch(
            svc.service_id.addr, svc.service_id.port)
        if not _run_until_done(tb, request, cap_s=90.0):
            hung += 1
            continue
        timing = request.result
        if timing.ok:
            answered += 1
            samples.append(timing.time_total)
        # Reset to a fully cold platform: forget decisions, drop every
        # IPv4 flow (service + route), remove instance AND images.
        tb.memory.clear()
        tb.switch.table.delete(Match(eth_type=0x0800))
        if cluster.is_created(svc.spec) or cluster.is_ready(svc.spec):
            remove = tb.engine.remove(cluster, svc, delete_images=True)
            _run_until_done(tb, remove, cap_s=30.0)
        else:
            cluster.delete_images(svc.spec)
        tb.run(until=tb.sim.now + 1.0)

    counters = snapshot_failures(controller=tb.controller)
    p50, p99 = _percentiles(samples)
    return {"pull_fail_rate": f"{rate:.2f}", "requests": rounds,
            "answered": answered, "hung": hung,
            "availability": answered / rounds,
            "p50_s": p50, "p99_s": p99,
            "retries": counters.retries,
            "gave_up": counters.deploy_exhausted,
            "cloud_fallbacks": counters.cloud_fallbacks}


# --------------------------------------------------------------------------
# R2 — circuit breaker on/off under a cluster outage
# --------------------------------------------------------------------------


def r2_breaker_outage_ablation(
        requests: int = 400,
        gap_s: float = 0.5,
        outage_at: float = 60.0,
        outage_s: float = 120.0,
        seed: int = 31) -> Table:
    """Same outage, with and without the per-cluster circuit breaker.

    The service is deployed warm; every request still traverses the
    controller (``use_flow_memory=False`` + short switch timeouts), so each
    one makes a live scheduling decision against the broken cluster."""
    table = Table(
        title="R2 — Circuit breaker under a cluster outage "
              f"({outage_s:.0f}s outage, {requests} requests)",
        columns=["breaker", "answered", "hung", "p50_s", "p99_s",
                 "breaker_opens", "retries", "gave_up", "cloud_fallbacks"],
        note="without the breaker every outage request pays retry+backoff "
             "before degrading to the cloud; with it only the tripping "
             "failures and probation probes do",
    )
    for use_breaker in (True, False):
        table.add(**r2_breaker_cell(use_breaker=use_breaker, requests=requests,
                                    gap_s=gap_s, outage_at=outage_at,
                                    outage_s=outage_s, seed=seed))
    return table


def r2_breaker_cell(use_breaker: bool, requests: int, gap_s: float,
                    outage_at: float, outage_s: float, seed: int = 31) -> dict:
    """One breaker arm of R2: warm service, timed outage, steady requests."""
    tb = build_testbed(
        seed=seed, n_clients=4, cluster_types=("docker",),
        use_flow_memory=False,
        switch_idle_timeout_s=0.3,
        use_breaker=use_breaker,
        breaker_config=BreakerConfig(failure_threshold=2,
                                     open_for_s=outage_s))
    svc = tb.register_catalog_service("nginx", with_cloud_origin=True)
    cluster = tb.clusters["docker-egs"]
    # Cloud-routed requests install plain route flows; keep their idle
    # timeout below the request gap so every request table-misses and
    # makes a fresh scheduling decision (the quantity under test).
    tb.controller.cfg.route_idle_timeout_s = 0.3
    warm = tb.engine.ensure_available(cluster, svc)
    _run_until_done(tb, warm, cap_s=120.0)
    assert warm.done and warm.exception is None

    FaultSchedule([cluster_outage(cluster, at=tb.sim.now + outage_at,
                                  duration_s=outage_s)]).install(tb.sim)

    samples: List[float] = []
    answered = 0
    hung = 0
    start = tb.sim.now
    for index in range(requests):
        next_at = start + index * gap_s
        if tb.sim.now < next_at:
            tb.run(until=next_at)
        request = tb.client(index % len(tb.timed_clients)).fetch(
            svc.service_id.addr, svc.service_id.port)
        if not _run_until_done(tb, request, cap_s=90.0, step_s=gap_s):
            hung += 1
            continue
        timing = request.result
        if timing.ok:
            answered += 1
            samples.append(timing.time_total)

    counters = snapshot_failures(controller=tb.controller)
    p50, p99 = _percentiles(samples)
    return {"breaker": "on" if use_breaker else "off",
            "answered": answered, "hung": hung, "p50_s": p50, "p99_s": p99,
            "breaker_opens": counters.breaker_opens,
            "retries": counters.retries,
            "gave_up": counters.deploy_exhausted,
            "cloud_fallbacks": counters.cloud_fallbacks}


# --------------------------------------------------------------------------
# R3 — controller crash / warm-restart chaos
# --------------------------------------------------------------------------


def _chaos_testbed(seed: int, heartbeat_s: float = 0.5):
    """A warm single-switch testbed with liveness armed on both sides."""
    tb = build_testbed(seed=seed, n_clients=2, cluster_types=("docker",),
                       use_flow_memory=True, switch_idle_timeout_s=10.0)
    svc = tb.register_catalog_service("nginx", with_cloud_origin=True)
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], svc)
    _run_until_done(tb, warm, cap_s=120.0)
    assert warm.done and warm.exception is None
    tb.manager.enable_heartbeat(interval_s=heartbeat_s, miss_limit=3)
    tb.switch.enable_liveness(interval_s=heartbeat_s, miss_limit=3)
    return tb, svc


def _chaos_row(tb, bank, crashes_scheduled: int) -> dict:
    """The shared measurement/invariant tail of an R3/R4 cell."""
    # Full data-plane verification at the quiesce point (V1–V5, strict
    # cookie accounting): a chaos cell must settle into a state the static
    # verifier certifies, not merely one whose counters look right. Local
    # import — repro.verify's scenario helpers import this module.
    from repro.verify import verify_testbed
    report = verify_testbed(tb)
    assert report.ok, \
        f"data-plane invariant violations at quiesce:\n{report.to_text()}"
    recovery = tb.manager.recovery.summary()
    stats = tb.controller.stats
    counters = snapshot_failures(controller=tb.controller)
    result = bank.result
    return {
        "clients": bank.n_clients,
        "served_ok": result.ok_count,
        "aborted": bank.aborted,
        # Invariant: every conversation terminated (served or watchdogged);
        # a nonzero count means a client was permanently blackholed.
        "blackholed": bank.n_clients - result.completed_count,
        "crashes": tb.manager.crashes,
        "crashes_scheduled": crashes_scheduled,
        "detect_switch": tb.switch.stats()["controller_outages_detected"],
        "detections": int(recovery["detections"]),
        "resyncs": int(recovery["resyncs"]),
        "resync_mean_s": recovery["resync_mean_s"],
        "flows_reconciled": stats["flows_reconciled"],
        "flows_gcd": stats["flows_gcd"],
        "packet_ins_lost": (tb.manager.events_lost
                            + stats["packet_ins_dropped_resync"]
                            + stats["pending_lost_on_crash"]),
        "ctrl_drops_up": counters.control_msgs_dropped_up,
        "ctrl_drops_down": counters.control_msgs_dropped_down,
        # Invariant: no installed flow redirects to a dead instance.
        "stale_flows": tb.controller.audit_stale_service_flows(),
    }


def r3_controller_crash_chaos(
        crash_counts: Tuple[int, ...] = (0, 1, 2),
        n_clients: int = 240,
        window: int = 16,
        seed: int = 101) -> Table:
    """Warm-restart chaos: ``crashes`` controller crashes land while the
    client bank runs; each crash wipes the controller's volatile state and
    the restart must reconcile it back from the switches."""
    table = Table(
        title="R3 — Controller crash/warm-restart chaos "
              f"({n_clients} clients, window {window})",
        columns=["crashes", "clients", "served_ok", "aborted", "blackholed",
                 "detect_switch", "resyncs", "resync_mean_s",
                 "flows_reconciled", "flows_gcd", "packet_ins_lost",
                 "stale_flows"],
        note="blackholed and stale_flows are invariants (must be 0): every "
             "client terminates and no flow serves a dead instance after "
             "the post-restart resync",
    )
    for crashes in crash_counts:
        row = r3_crash_cell(crashes=crashes, n_clients=n_clients,
                            window=window, seed=seed)
        row.pop("crashes_scheduled", None)
        row.pop("ctrl_drops_up", None)
        row.pop("ctrl_drops_down", None)
        row.pop("detections", None)
        table.add(**row)
    return table


def r3_crash_cell(crashes: int, n_clients: int, window: int,
                  seed: int = 101) -> dict:
    """One arm of R3: ``crashes`` crashes triggered at seeded progress
    thresholds of the bank (guaranteed to land mid-traffic), each with a
    seeded downtime before the warm restart."""
    tb, svc = _chaos_testbed(seed)
    bank = attach_client_bank(tb, svc, n_clients=n_clients, window=window)

    rng = np.random.default_rng([seed, crashes])
    thresholds = sorted(int(f * n_clients)
                        for f in rng.uniform(0.10, 0.75, size=crashes))
    downtimes = list(rng.uniform(1.0, 4.0, size=crashes))

    bank.start(spacing_s=0.0005)
    fired = 0
    chunks = 0
    while not bank.done:
        # Fine-grained chunks: the crash must land MID-traffic, between two
        # launches, not after the bank drained (healthy conversations are
        # a few ms end-to-end).
        tb.run(until=tb.sim.now + 0.002)
        chunks += 1
        assert chunks < 200_000, "R3 bank stalled (blackholed clients?)"
        if (fired < crashes and bank.launched >= thresholds[fired]
                and tb.manager.alive):
            tb.manager.crash()
            tb.sim.schedule(downtimes[fired], tb.manager.restart)
            fired += 1
    # Let the last resync (and any straggling watchdogs) settle.
    tb.run(until=tb.sim.now + 5.0)
    return _chaos_row(tb, bank, crashes)


# --------------------------------------------------------------------------
# R4 — mixed chaos sweep (crashes + channel outages + link flaps)
# --------------------------------------------------------------------------


def r4_mixed_chaos_sweep(
        seeds: Tuple[int, ...] = (211, 223, 227),
        n_clients: int = 240,
        window: int = 16) -> Table:
    """Per seed: a declarative :class:`FaultSchedule` of one controller
    crash, two control-channel outages, and two client-link flaps plays
    over bank traffic. All times/durations come from the seeded driver
    RNG, so a seed fully determines the run (byte-identical traces)."""
    table = Table(
        title=f"R4 — Mixed chaos sweep ({n_clients} clients, "
              "crash + channel outages + link flaps)",
        columns=["seed", "served_ok", "aborted", "blackholed", "crashes",
                 "detections", "resyncs", "flows_reconciled", "flows_gcd",
                 "packet_ins_lost", "ctrl_drops_up", "ctrl_drops_down",
                 "stale_flows"],
        note="same invariants as R3; detections = controller-side heartbeat "
             "declarations of an unreachable switch",
    )
    for seed in seeds:
        row = r4_chaos_cell(seed=seed, n_clients=n_clients, window=window)
        row["seed"] = row.pop("cell_seed")
        row.pop("clients", None)
        row.pop("crashes_scheduled", None)
        row.pop("detect_switch", None)
        row.pop("resync_mean_s", None)
        table.add(**row)
    return table


def r4_chaos_cell(seed: int, n_clients: int, window: int) -> dict:
    """One seed of R4: the full mixed fault schedule over bank traffic."""
    tb, svc = _chaos_testbed(seed)
    # Throttled shared link: the closed-loop bank drains a 1 Gbps link in
    # tens of milliseconds, faster than any fault window can land — at a
    # few hundred kbit/s the traffic span stretches over several seconds
    # so every window overlaps live conversations.
    bank = attach_client_bank(tb, svc, n_clients=n_clients, window=window,
                              bandwidth_bps=4e5)
    bank_link = tb.net.links[-1]  # the link attach_client_bank just wired
    channel = tb.manager.datapaths[tb.switch.dpid].channel

    rng = np.random.default_rng([seed, 4])
    start = tb.sim.now
    # Windows may overlap each other and the crash — exactly the
    # composition the refcounted FaultSchedule must get right.
    schedule = FaultSchedule()
    schedule.add(controller_outage(
        tb.manager, at=start + float(rng.uniform(0.2, 0.8)),
        duration_s=float(rng.uniform(1.0, 2.5))))
    # Long enough that the 3-miss heartbeat can declare the switch dead
    # (-> DEAD state change, revival resync when it comes back).
    for at in rng.uniform(0.3, 3.5, size=2):
        schedule.add(channel_outage(channel, at=start + float(at),
                                    duration_s=float(rng.uniform(0.8, 3.5))))
    for at in rng.uniform(0.3, 3.5, size=2):
        schedule.add(link_flap(bank_link, at=start + float(at),
                               duration_s=float(rng.uniform(0.1, 0.4))))
    schedule.install(tb.sim)

    run_client_bank(tb, bank, spacing_s=0.0005, chunk_s=0.5)
    # Heartbeat/liveness recovery slack past the last window.
    tb.run(until=tb.sim.now + 5.0)

    row = _chaos_row(tb, bank, crashes_scheduled=1)
    return {"cell_seed": seed, **row}

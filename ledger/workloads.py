"""The five workloads, built only from the repo's public functions.

Each workload is a function ``(seed, smoke, workers) -> Prepared``: it does
the set-up (build the testbed, register, warm-deploy, prime) and returns the
timed region as a callable plus a collector for what the region produced. A
*conversation* is one client request served, TCP open to close.

Sizes are drawn from the seed (base + up to 2 %), so two seeds give two
different inputs while per-conversation costs stay comparable; ``smoke``
divides them by ten.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Dict, List

from repro.experiments.domains import build_domain_partition
from repro.experiments.partb import replay_trace_through_controller
from repro.experiments.topologies import Testbed, build_testbed
from repro.metrics.stats import StreamingStats, summarize
from repro.simcore.domains import LockstepCoordinator
from repro.workloads.cloudprefix import (
    apply_churn_op,
    bulk_register,
    churn_schedule,
    subnet_service,
    synth_cloud_prefixes,
    synth_service_ids,
)
from repro.workloads.loadgen import ClosedLoopGenerator
from repro.workloads.scale import attach_client_bank, run_client_bank
from repro.workloads.trace import synthesize_bigflows_trace

DEFAULT_SEED = 2019


@dataclass
class Outcome:
    """What one timed region produced."""

    #: the simulated row — must repeat exactly for a seed
    row: Dict[str, Any]
    #: conversations issued / served
    issued: int
    ok: int


@dataclass
class Prepared:
    #: the timed region
    run: Callable[[], None]
    #: what it produced; call after ``run``
    outcome: Callable[[], Outcome]
    #: the testbeds behind the row (``verify_testbed`` and public counters);
    #: filled by ``run`` when the region builds its own, and left empty when
    #: they live in lockstep domains
    testbeds: List[Testbed] = field(default_factory=list)


def _sized(base: int, seed: int, smoke: bool) -> int:
    if smoke:
        base //= 10
    return base + Random(seed).randrange(max(1, base // 50))


def _warm_nginx(tb: Testbed):
    """Register nginx and deploy it before the timed region."""
    service = tb.register_catalog_service("nginx")
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], service)
    tb.run(until=tb.sim.now + 60.0)
    if not warm.done or warm.exception is not None:
        raise RuntimeError("warm deployment failed")
    return service


def _row(tb: Testbed, ok: int, failed: int, summary: Any, **more: Any) -> Dict[str, Any]:
    return {"ok": ok, "failed": failed,
            "forwarded_frames": tb.switch.tx_frames,
            "packet_ins": tb.switch.packet_ins,
            "dispatches": tb.controller.stats["service_dispatches"],
            "mean_ms": round(summary.mean * 1000, 3),
            "p95_ms": round(summary.p95 * 1000, 3), **more}


# --------------------------------------------------------------------------
# new_clients — A6 shape: every conversation is a new client IP
# --------------------------------------------------------------------------


def _bank_testbed(seed: int):
    tb = build_testbed(seed=seed, n_clients=1, cluster_types=("docker",),
                       switch_idle_timeout_s=0.5, memory_idle_timeout_s=2.0)
    return tb, _warm_nginx(tb)


def new_clients(seed: int, smoke: bool, workers: int) -> Prepared:
    tb, service = _bank_testbed(seed)
    clients = _sized(1600, seed, smoke)
    bank = attach_client_bank(tb, service, n_clients=clients, window=64)

    def outcome() -> Outcome:
        result = bank.result
        return Outcome(_row(tb, result.ok_count, result.failed, result.summary()),
                       issued=result.issued, ok=result.ok_count)

    return Prepared(lambda: run_client_bank(tb, bank), outcome, [tb])


# --------------------------------------------------------------------------
# warm_sessions — 16 real hosts, flows primed: no packet-in while timed
# --------------------------------------------------------------------------

WARM_USERS = 16


def warm_sessions(seed: int, smoke: bool, workers: int) -> Prepared:
    tb = build_testbed(seed=seed, n_clients=WARM_USERS, cluster_types=("docker",),
                       switch_idle_timeout_s=3600.0, memory_idle_timeout_s=3600.0)
    service = _warm_nginx(tb)
    sid = service.service_id
    primed = [tb.client(user).fetch(sid.addr, sid.port) for user in range(WARM_USERS)]
    tb.run(until=tb.sim.now + 5.0)
    if not all(p.done and p.result.ok for p in primed):
        raise RuntimeError("priming request failed")
    # Closed loop in simulated time: the conversation count follows from the
    # duration, so it repeats exactly for a seed.
    duration_s = _sized(2600, seed, smoke) / 10_000.0
    generator = ClosedLoopGenerator(tb, service, users=WARM_USERS,
                                    think_time_s=0.001, keep_timings=False)

    def run() -> None:
        generator.start(duration_s)
        tb.run(until=tb.sim.now + duration_s + 1.0)

    def outcome() -> Outcome:
        result = generator.result
        return Outcome(_row(tb, result.ok_count, result.failed, result.summary()),
                       issued=result.issued, ok=result.ok_count)

    return Prepared(run, outcome, [tb])


# --------------------------------------------------------------------------
# registry_churn — new_clients beside a churning 20 000-service registry
# --------------------------------------------------------------------------

CHURN_TICK_S = 0.002
#: register/deregister ops and decision probes per tick — sized so the
#: registry holds a quarter of the traced run's self time
CHURN_BATCH = 80
CHURN_PROBES = 160


def registry_churn(seed: int, smoke: bool, workers: int) -> Prepared:
    tb, service = _bank_testbed(seed)
    clients = _sized(900, seed, smoke)
    registry, controller = tb.registry, tb.controller

    n_services = 2_000 if smoke else 20_000
    prefixes = synth_cloud_prefixes(seed=seed, count=n_services // 64)
    service_ids = synth_service_ids(seed + 1, n_services, prefixes, udp_share=0.25)
    bulk_register(registry, service_ids)
    for prefix in prefixes[:4]:
        subnet = subnet_service(prefix)
        if subnet.service_id not in registry:  # a sampled host id may clash
            registry.register_service(subnet)

    # Enough script for the whole run; the tick stops with the bank.
    script = churn_schedule(seed + 2, service_ids, ops=clients * 12)
    probe_rng = Random(seed + 3)
    state = {"applied": 0, "probes": 0, "misdispatched": 0}
    bank = attach_client_bank(tb, service, n_clients=clients, window=64)

    def churn_tick() -> None:
        if bank.done:
            return
        applied = state["applied"]
        for op, sid in script[applied:applied + CHURN_BATCH]:
            apply_churn_op(registry, op, sid)
        state["applied"] = min(len(script), applied + CHURN_BATCH)
        # Memoized packet-in decision against the live registry's truth.
        for _ in range(CHURN_PROBES):
            sid = service_ids[probe_rng.randrange(n_services)]
            got = controller.service_decision(sid.addr, sid.port, sid.protocol)
            if got is not registry.lookup_prefix(sid.addr, sid.port, sid.protocol):
                state["misdispatched"] += 1
        state["probes"] += CHURN_PROBES
        tb.sim.schedule(CHURN_TICK_S, churn_tick)

    def run() -> None:
        tb.sim.schedule(CHURN_TICK_S, churn_tick)
        run_client_bank(tb, bank)

    def outcome() -> Outcome:
        result = bank.result
        row = _row(tb, result.ok_count, result.failed, result.summary(),
                   churn_ops=state["applied"], decision_probes=state["probes"],
                   misdispatched=state["misdispatched"])
        return Outcome(row, issued=result.issued, ok=result.ok_count)

    return Prepared(run, outcome, [tb])


# --------------------------------------------------------------------------
# trace_deploy — fig. 10 shape: every service cold-deploys on first request
# --------------------------------------------------------------------------

#: past ~100 deployments on one docker-egs the replay starts failing requests
#: (at 200 services only 103 deploy, 8 % of requests fail) — stay below
TRACE_SERVICES = 64


def trace_deploy(seed: int, smoke: bool, workers: int) -> Prepared:
    services = 8 if smoke else TRACE_SERVICES
    trace = synthesize_bigflows_trace(
        seed=seed, n_services=services, min_requests=20, noise_services=0,
        total_requests=_sized(1700, seed, smoke))
    replayed: Dict[str, Any] = {}
    testbeds: List[Testbed] = []

    def run() -> None:
        # The replay owns its testbed, so build and registration are timed too.
        replayed.update(replay_trace_through_controller(trace=trace, seed=seed))
        testbeds.append(replayed["testbed"])

    def outcome() -> Outcome:
        tb = testbeds[0]
        timings = replayed["timings"]
        row = _row(tb, len(timings), replayed["failed"],
                   summarize(t.time_total for t in timings),
                   deployments=len(replayed["deployments"]))
        return Outcome(row, issued=len(trace), ok=len(timings))

    return Prepared(run, outcome, testbeds)


# --------------------------------------------------------------------------
# sharded_domains — A7 shape: 4 ingress domains under conservative lockstep
# --------------------------------------------------------------------------

SHARDED_DOMAINS = 4


def sharded_domains(seed: int, smoke: bool, workers: int) -> Prepared:
    local = _sized(320, seed, smoke)
    partition = build_domain_partition(
        n_domains=SHARDED_DOMAINS, seed=seed, clients_local=local,
        clients_remote=local // 4, window=32, stagger=10)
    ran: List[Any] = []

    def run() -> None:
        # Domain build and warm-up happen inside the coordinator's run.
        ran.append(LockstepCoordinator(partition, processes=workers).run())

    def outcome() -> Outcome:
        lockstep = ran[-1]
        rows = [domain.result["row"] for domain in lockstep.outcomes]
        stream = StreamingStats()
        for domain in lockstep.outcomes:
            stream.merge(domain.result["stream"])
        summary = stream.summary()
        total = {key: sum(row[key] for row in rows)
                 for key in ("ok", "failed", "forwarded_frames", "packet_ins",
                             "dispatches", "clients")}
        row = {**total, "mean_ms": round(summary.mean * 1000, 3),
               "p95_ms": round(summary.p95 * 1000, 3),
               "epochs": lockstep.epochs,
               "envelopes": lockstep.envelopes_exchanged}
        return Outcome(row, issued=row.pop("clients"), ok=total["ok"])

    return Prepared(run, outcome)


WORKLOADS: Dict[str, Callable[[int, bool, int], Prepared]] = {
    "new_clients": new_clients,
    "warm_sessions": warm_sessions,
    "registry_churn": registry_churn,
    "trace_deploy": trace_deploy,
    "sharded_domains": sharded_domains,
}

#: why each workload is in the ledger (BENCHMARK.json carries the same lines)
WHY: Dict[str, str] = {
    "new_clients": "every conversation is a new client IP: packet-in, dispatch, rule "
                   "installs, idle expiries, microflow evictions - the slow path and flow churn",
    "warm_sessions": "16 real hosts on primed flows, zero packet-ins: kernel, link, host "
                     "and switch fast path only - a controller or registry change must not move it",
    "registry_churn": "new_clients beside a 20 000-service registry under register/"
                      "deregister churn and decision probes: writes beside reads on registry and trie",
    "trace_deploy": "fig. 10 trace replay from 20 hosts, open loop, 64 services cold-deploy on "
                    "first request: the only workload through deployment, edge and dispatch-with-waiting",
    "sharded_domains": "A7 shape, 4 ingress domains under conservative lockstep (serial executor "
                       "when timed, min(2, nproc) workers in the traced run): the only one through simcore.domains",
}

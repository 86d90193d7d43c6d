"""C1 — registry churn under live traffic (ROADMAP item 3).

The web-scale claim is not "a trie is fast": it is that the *packet-in
decision stays correct and cheap while the registered address space churns
under live traffic*.  This scenario registers thousands of cloud-shaped
synthetic services (plus a few subnet-registered prefixes), then
register/deregisters them on a deterministic schedule while a ClientBank
drives conversations through one real target service.

Invariants recorded as CSV columns (both must be zero):

* ``misdispatched`` — decision-coherence probes: after every churn batch a
  sample of service identities is pushed through the controller's
  packet-in decision (:meth:`service_decision`) and compared against the
  live registry's ground truth (``lookup_prefix``).  Any disagreement means
  the decision answered from stale state — a packet would have been
  dispatched to a deregistered service or routed past a registered one.
  Unserved bank conversations count here too.
* ``verify_violations`` — the full data-plane verifier (V1–V5) at quiesce.

Cells are pure functions of their seed (same seed -> identical row), so the
CSV is byte-identical from run to run.
"""

from __future__ import annotations

from random import Random
from typing import Dict, Tuple

from repro.experiments.topologies import build_testbed
from repro.metrics import Table

#: sim-time between churn batches (well under the bank's total runtime, so
#: churn and traffic genuinely interleave)
CHURN_TICK_S = 0.05


def c1_churn_cell(n_services: int, churn_ops: int, clients: int,
                  window: int = 48, batch: int = 4,
                  probes_per_batch: int = 8, seed: int = 401) -> Dict[str, object]:
    """One churn tier: returns the table row (pure function of the seed)."""
    from repro.verify import verify_testbed
    from repro.workloads.cloudprefix import (
        apply_churn_op,
        bulk_register,
        churn_schedule,
        subnet_service,
        synth_cloud_prefixes,
        synth_service_ids,
    )
    from repro.workloads.scale import attach_client_bank, run_client_bank

    tb = build_testbed(seed=seed, n_clients=1, cluster_types=("docker",),
                       switch_idle_timeout_s=0.5, memory_idle_timeout_s=2.0)
    target = tb.register_catalog_service("nginx")
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], target)
    tb.run(until=tb.sim.now + 60.0)
    assert warm.done and warm.exception is None

    # Cloud-shaped background registrations: host services sampled inside
    # provider prefixes (a quarter UDP — the registry keys on the full
    # triple) plus a few subnet-registered prefixes resolved by LPM.
    registry = tb.controller.registry
    prefixes = synth_cloud_prefixes(seed=seed, count=max(8, n_services // 64))
    service_ids = synth_service_ids(seed + 1, n_services, prefixes,
                                    udp_share=0.25)
    bulk_register(registry, service_ids)
    for prefix in prefixes[:4]:
        subnet = subnet_service(prefix)
        # A sampled host id can collide with the subnet service's own
        # identity (the triple is the identity) — skip the clash.
        if subnet.service_id not in registry:
            registry.register_service(subnet)

    script = churn_schedule(seed + 2, service_ids, churn_ops)
    probe_rng = Random(seed + 3)
    controller = tb.controller
    state = {"applied": 0, "misdispatched": 0, "probes": 0}

    def _probe() -> None:
        """Packet-in decision vs. live registry over a sample of identities
        (deregistered ones are the negative probes)."""
        for _ in range(probes_per_batch):
            sid = service_ids[probe_rng.randrange(len(service_ids))]
            got = controller.service_decision(sid.addr, sid.port, sid.protocol)
            want = registry.lookup_prefix(sid.addr, sid.port, sid.protocol)
            state["probes"] += 1
            if got is not want:
                state["misdispatched"] += 1

    def _churn_tick() -> None:
        for _ in range(batch):
            if state["applied"] >= len(script):
                break
            op, sid = script[state["applied"]]
            apply_churn_op(registry, op, sid)
            state["applied"] += 1
        _probe()
        if state["applied"] < len(script):
            tb.sim.schedule(CHURN_TICK_S, _churn_tick)

    tb.sim.schedule(CHURN_TICK_S, _churn_tick)

    bank = attach_client_bank(tb, target, n_clients=clients, window=window)
    result = run_client_bank(tb, bank)
    # The bank may drain before the schedule does: apply the remainder (the
    # coherence probes still run against the live decision).
    while state["applied"] < len(script):
        op, sid = script[state["applied"]]
        apply_churn_op(registry, op, sid)
        state["applied"] += 1
        if state["applied"] % batch == 0:
            _probe()
    _probe()
    tb.run(until=tb.sim.now + 10.0)  # quiesce: let flows idle out

    report = verify_testbed(tb)
    summary = result.summary()
    unserved = clients - result.ok_count
    return {"services": n_services,
            "churn_ops": state["applied"],
            "clients": clients,
            "ok": result.ok_count,
            "misdispatched": state["misdispatched"] + unserved,
            "verify_violations": len(report.violations),
            "decision_probes": state["probes"],
            "registry_generation": registry.generation,
            "registered_at_quiesce": len(registry),
            "dispatches": tb.controller.stats["service_dispatches"],
            "mean_ms": round(summary.mean * 1000, 3),
            "p95_ms": round(summary.p95 * 1000, 3)}


def c1_registry_churn(
    tiers: Tuple[Tuple[int, int], ...] = ((1_000, 256), (5_000, 512)),
    clients: int = 240,
) -> Table:
    """Registry churn while ClientBank traffic flows (invariant columns
    ``misdispatched`` and ``verify_violations`` must be zero)."""
    table = Table(
        title="C1 — Packet-in decisions under registry churn "
              "(cloud-prefix registrations, live ClientBank traffic)",
        columns=["services", "churn_ops", "clients", "ok", "misdispatched",
                 "verify_violations", "decision_probes",
                 "registry_generation", "registered_at_quiesce",
                 "dispatches", "mean_ms", "p95_ms"],
        note="misdispatched = packet-in decision != live registry at probe "
             "time, plus unserved conversations; must be 0",
    )
    for n_services, ops in tiers:
        table.add(**c1_churn_cell(n_services=n_services, churn_ops=ops,
                                  clients=clients, seed=401))
    return table

"""Slow-path memoization must be invisible to packet disposition.

The controller memoizes the registry decision of its packet-in slow path
in a :class:`RevalidatingCache`. These tests run the *same randomized
scenario twice*: normally, and with the memo swapped for an always-miss
oracle (``tests/core/memo_standin``), so every decision is recomputed by
the code that actually runs on a miss. The two runs must be
indistinguishable from the outside: identical trace streams (every flow
install, packet-out and app log in the same order at the same simulated
times), identical installed flows, identical stats, identical client
timings.

The scenario interleaves *unrelated* churn — a cloud-prefix service
registering/deregistering, a foreign client's FlowMemory entry being
overwritten — so the memo answers from the revalidate tier (generation
moved, this key's token did not), not only from O(1) hits.
"""

import random

import pytest

from repro.experiments import build_testbed
from repro.metrics.perf import PERF
from repro.netsim.addresses import IPv4
from repro.simcore import TraceLog
from repro.workloads.cloudprefix import (
    synth_cloud_prefixes,
    synth_service_ids,
    synthetic_service,
)

from tests.core.memo_standin import disable_memos

#: churn identities: a synthetic cloud-supernet service and an RFC 2544
#: address that is never a host — provably unrelated to the hot flows
CHURN_SID = synth_service_ids(12, 1, synth_cloud_prefixes(seed=11, count=16))[0]
FOREIGN_CLIENT = IPv4("198.18.0.1")


def _flow_snapshot(tb):
    """Stable view of every installed flow on the testbed's switch."""
    return [
        (str(entry.match), entry.priority, entry.cookie,
         entry.idle_timeout, entry.hard_timeout,
         tuple(str(action) for action in entry.actions))
        for entry in tb.switch.table.entries
    ]


def _run_scenario(memoize: bool, seed: int):
    """One randomized multi-client run; returns everything observable."""
    trace = TraceLog(enabled=True)
    tb = build_testbed(seed=seed, n_clients=4, cluster_types=("docker",),
                       switch_idle_timeout_s=0.8, memory_idle_timeout_s=2.5,
                       trace=trace)
    if not memoize:
        disable_memos(tb.controller)
    svc = tb.register_catalog_service("nginx")
    registry, memory = tb.controller.registry, tb.controller.memory
    cluster = tb.clusters["docker-egs"]

    def churn():
        if CHURN_SID in registry:
            registry.deregister(CHURN_SID)
        else:
            registry.register_service(synthetic_service(CHURN_SID))
        endpoint = cluster.endpoint(svc.spec)
        if endpoint is not None:
            memory.remember(FOREIGN_CLIENT, svc.service_id, cluster, endpoint)

    # Randomized but seed-determined schedule. The gap choices straddle both
    # idle timeouts, so the same (client, service) pair repeatedly re-enters
    # the slow path via every route: pending coalescing, FlowMemory hit,
    # memory expiry, full dispatch — each preceded by a churn event.
    rng = random.Random(seed * 7919 + 17)
    t = 0.05
    results = []
    for _ in range(24):
        def start(index=rng.randrange(4)):
            results.append(tb.client(index).fetch(
                svc.service_id.addr, svc.service_id.port))
        tb.sim.schedule_at(t - 0.001, churn)
        tb.sim.schedule_at(t, start)
        t += rng.choice((0.005, 0.05, 0.4, 1.0, 3.1))
    revalidations = PERF.memo_revalidations
    tb.run(until=t + 30.0)
    mid_flows = _flow_snapshot(tb)
    tb.run()  # quiescence: all idle timers fire

    timings = [p.result for p in results]
    assert all(timing.ok for timing in timings), timings
    memo_stats = {"hits": tb.controller.service_memo_stats()["hits"],
                  "revalidations": PERF.memo_revalidations - revalidations}
    return {
        "trace": [str(record) for record in trace.records],
        "mid_flows": mid_flows,
        "final_flows": _flow_snapshot(tb),
        "timings": [(round(x.t_start, 9), round(x.time_connect, 9),
                     round(x.time_total, 9), x.status) for x in timings],
        "stats": dict(tb.controller.stats),
        "memo_stats": memo_stats,
        "packet_ins": tb.switch.packet_ins,
        "tx_frames": tb.switch.tx_frames,
    }


class TestMemoizationInvisibility:
    @pytest.mark.parametrize("seed", [11, 29])
    def test_differential_memoized_vs_always_miss(self, seed):
        """Byte-for-byte identical externally observable behavior."""
        on = _run_scenario(memoize=True, seed=seed)
        off = _run_scenario(memoize=False, seed=seed)
        assert on["trace"] == off["trace"]
        assert on["mid_flows"] == off["mid_flows"]
        assert on["final_flows"] == off["final_flows"]
        assert on["timings"] == off["timings"]
        assert on["stats"] == off["stats"]
        assert on["packet_ins"] == off["packet_ins"]
        assert on["tx_frames"] == off["tx_frames"]

    def test_memo_actually_engages(self):
        """The differential isn't vacuous: the memoized run answers from
        the service memo — through the revalidate tier, since churn
        precedes every fetch — and the oracle run never does."""
        on = _run_scenario(memoize=True, seed=11)
        off = _run_scenario(memoize=False, seed=11)
        assert on["memo_stats"]["hits"] > 0
        assert on["memo_stats"]["revalidations"] > 0
        assert off["memo_stats"]["hits"] == 0
        assert off["memo_stats"]["revalidations"] == 0

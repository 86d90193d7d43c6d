"""Schedule identity: the event schedule is pinned to the last ulp.

Every ``Simulator.schedule`` call of a run is folded, as
``(repr(sim.now), repr(delay))``, into a sha256. The digest moves on any
added, dropped, reordered or last-ulp-shifted event — which the ledger's
golden rows (rounded to the microsecond) cannot see. A change to the frame
path that claims "same events, same timestamps" must leave all three alone.

The expected digests are not derived: they were recorded by running this
file against a checkout of the commit *before* the frame path was optimised
(docs/performance.md, "Call budget per frame"). After a change that is
*meant* to alter simulated behaviour, re-record them from the digests the
failing assertions print.
"""

import hashlib

import pytest

from repro.experiments.topologies import build_testbed
from repro.simcore.loop import Simulator
from repro.workloads.loadgen import ClosedLoopGenerator
from repro.workloads.scale import attach_client_bank, run_client_bank

SEED = 2019

EXPECTED = {
    "client_bank": "ba22561535b0e988e541da2ba5174ef817a95770ffd73ac0385ac33ece0d75d6",
    "warm_hosts": "272cea17da73ab6b469bab43d98a27f4fa4b3195a06f2a2577a07ee1df18d8e1",
    "client_bank_link_loss": "21f654646217ff0a44c923cf8446f6d19461e2e0e4fa5bc209148bc4eb5a7d0a",
}


@pytest.fixture
def schedule_digest(monkeypatch):
    """sha256 over every ``schedule`` call made while the test runs."""
    digest = hashlib.sha256()
    schedule = Simulator.schedule

    def hashed(sim, delay, callback, *args):
        digest.update(f"{sim.now!r} {delay!r}\n".encode())
        return schedule(sim, delay, callback, *args)

    monkeypatch.setattr(Simulator, "schedule", hashed)
    return digest


def _warm_nginx(tb):
    service = tb.register_catalog_service("nginx")
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], service)
    tb.run(until=tb.sim.now + 60.0)
    assert warm.done and warm.exception is None
    return service


def _client_bank(link_loss_rate=0.0):
    """The ledger's ``new_clients`` at smoke size: every conversation a new
    client IP, so packet-ins, installs, idle expiries and evictions."""
    tb = build_testbed(seed=SEED, n_clients=1, cluster_types=("docker",),
                       switch_idle_timeout_s=0.5, memory_idle_timeout_s=2.0)
    service = _warm_nginx(tb)
    bank = attach_client_bank(tb, service, n_clients=160, window=64)
    if link_loss_rate:
        # Armed only now, so every roll is a data-plane frame of the bank
        # run: the digest then pins the roll order across links too.
        tb.sim.faults.configure("link.loss", rate=link_loss_rate)
    result = run_client_bank(tb, bank)
    return tb, result


def test_client_bank_schedule(schedule_digest):
    tb, result = _client_bank()
    assert result.ok_count == result.issued == 160
    assert schedule_digest.hexdigest() == EXPECTED["client_bank"]


def test_warm_hosts_schedule(schedule_digest):
    """The ledger's ``warm_sessions`` in small: real hosts on primed flows,
    no packet-in while the closed loop runs."""
    users = 4
    tb = build_testbed(seed=SEED, n_clients=users, cluster_types=("docker",),
                       switch_idle_timeout_s=3600.0, memory_idle_timeout_s=3600.0)
    service = _warm_nginx(tb)
    sid = service.service_id
    primed = [tb.client(user).fetch(sid.addr, sid.port) for user in range(users)]
    tb.run(until=tb.sim.now + 5.0)
    assert all(p.done and p.result.ok for p in primed)
    packet_ins = tb.switch.packet_ins
    generator = ClosedLoopGenerator(tb, service, users=users,
                                    think_time_s=0.001, keep_timings=False)
    generator.start(0.05)
    tb.run(until=tb.sim.now + 1.05)
    result = generator.result
    assert result.ok_count == result.issued > 4 * users
    assert tb.switch.packet_ins == packet_ins
    assert schedule_digest.hexdigest() == EXPECTED["warm_hosts"]


def test_client_bank_schedule_under_link_loss(schedule_digest):
    tb, result = _client_bank(link_loss_rate=0.01)
    assert tb.sim.faults.injected["link.loss"] > 0
    assert result.issued == 160
    assert schedule_digest.hexdigest() == EXPECTED["client_bank_link_loss"]

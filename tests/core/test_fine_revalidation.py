"""Controller-side per-key revalidation: tokens, not flushes.

Three layers under test:

* :class:`repro.core.revalidation.RevalidatingCache` — the generic per-key
  revalidation memo, in isolation;
* the controller's two instances of it (service memo, install-plan memo) —
  unrelated churn (registry, FlowMemory, other clusters) must leave
  memoized answers warm, relevant churn must drop exactly the affected
  entry, and every outcome must reach the ``PERF.memo_*`` counters;
* the FlowMemory idle-expiry regression: one client's flow idling out used
  to bump the global generation and invalidate *every* memoized install
  plan — with per-key versions only that client's plan re-misses.

That the memos are invisible from the outside is proven differentially in
``test_controller_memoization.py``.
"""

import pytest

from repro.core.revalidation import RevalidatingCache
from repro.experiments import build_testbed
from repro.metrics.perf import PERF


# ------------------------------------------------------- RevalidatingCache


class TestRevalidatingCache:
    def setup_method(self):
        self.generation = 0
        self.tokens = {}

    def make(self, capacity=4096):
        return RevalidatingCache(token_of=lambda key: self.tokens.get(key, 0),
                                 generation_of=lambda key: self.generation,
                                 capacity=capacity)

    def test_hit_without_token_recompute_while_generation_still(self):
        cache = self.make()
        cache.store("a", 1)
        assert cache.get("a") == (True, 1)
        assert cache.stats()["revalidations"] == 0

    def test_generation_move_revalidates_per_key(self):
        cache = self.make()
        cache.store("a", 1)
        self.generation += 1  # churn, but a's token unchanged
        assert cache.get("a") == (True, 1)
        assert cache.stats()["revalidations"] == 1
        # re-stamped: the next get is an O(1) hit again
        assert cache.get("a") == (True, 1)
        assert cache.stats()["revalidations"] == 1

    def test_token_change_invalidates_only_that_key(self):
        cache = self.make()
        cache.store("a", 1)
        cache.store("b", 2)
        self.generation += 1
        self.tokens["a"] = 99
        assert cache.get("a") == (False, None)
        assert cache.get("b") == (True, 2)
        stats = cache.stats()
        assert (stats["invalidations"], stats["revalidations"]) == (1, 1)
        assert "a" not in cache and "b" in cache

    def test_none_is_a_legitimate_cached_value(self):
        cache = self.make()
        cache.store("neg", None)
        assert cache.get("neg") == (True, None)

    def test_capacity_overflow_flushes(self):
        cache = self.make(capacity=2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.store("c", 3)  # overflow: wholesale flush, then store
        assert len(cache) == 1
        assert cache.stats()["flushes"] == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            self.make(capacity=0)


# ------------------------------------------------- controller-level behaviour


def make_tb(seed=3, **kwargs):
    return build_testbed(seed=seed, n_clients=4, cluster_types=("docker",),
                         **kwargs)


class TestServiceMemoUnderChurn:
    def test_unrelated_registry_churn_keeps_service_memo_warm(self):
        tb = make_tb()
        svc = tb.register_catalog_service("nginx")
        tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run()
        before = tb.controller.service_memo_stats()
        # churn: an unrelated service registered then deregistered
        other = tb.register_catalog_service("asm")
        tb.controller.registry.deregister(other.service_id)
        tb.client(1).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run()
        after = tb.controller.service_memo_stats()
        assert after["invalidations"] == before["invalidations"] == 0
        assert after["flushes"] == 0
        assert after["hits"] > before["hits"]

    def test_relevant_deregister_invalidates_the_memo_entry(self):
        tb = make_tb()
        svc = tb.register_catalog_service("nginx")
        tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run()
        tb.controller.registry.deregister(svc.service_id)
        decision = tb.controller.service_decision(
            svc.service_id.addr, svc.service_id.port, svc.service_id.protocol)
        assert decision is None  # not served from the dead memo entry


class TestIdleExpiryRegression:
    """One client's FlowMemory expiry must not cold every other plan.

    ``FlowMemory`` bumps its global generation on *every* mutation —
    including the idle expiry of a single (client, service) flow. A plan
    validity pinned to that global would be invalidated by any expiry
    anywhere; the per-key token only sees this pair's own version.
    """

    def test_plan_stays_warm_across_foreign_expiry(self):
        # Switch flows idle out fast; FlowMemory holds longer. After a
        # cold-deploy warm-up, client 0 re-misses repeatedly — each refetch
        # lands after the switch flow expired but inside the memory
        # timeout, so the controller answers from FlowMemory and reuses
        # the memoized install plan. Client 1 fetches once and goes quiet:
        # its memory entry idles out between client 0's re-misses at
        # +1.9 and +2.8.
        tb = make_tb(switch_idle_timeout_s=0.4, memory_idle_timeout_s=2.0)
        svc = tb.register_catalog_service("nginx")
        addr, port = svc.service_id.addr, svc.service_id.port
        tb.client(0).fetch(addr, port)
        tb.run()  # cold deploy; every idle timer quiesces
        t0 = tb.sim.now
        for dt in (0.05, 1.0, 1.9, 2.8):
            tb.sim.schedule_at(t0 + dt, lambda: tb.client(0).fetch(addr, port))
        tb.sim.schedule_at(t0 + 0.10, lambda: tb.client(1).fetch(addr, port))
        tb.run()
        assert tb.controller.stats["service_hits_memory"] >= 3
        assert tb.controller.memory.expirations >= 1
        # +1.0 (client 1's remember is foreign churn), +1.9 (quiet), and
        # +2.8 (client 1's expiry is foreign churn) all reuse the plan.
        assert tb.controller.stats["slow_path_plan_hits"] == 3


class TestPlanMemoAccounting:
    """The install-plan memo is a ``RevalidatingCache`` like the service
    memo, so its invalidations and flushes reach ``PERF`` and a plan that
    fails revalidation is dropped, not left resident."""

    def _warm(self, **kwargs):
        """A testbed whose client 0 has a resident, once-reused plan."""
        tb = make_tb(switch_idle_timeout_s=0.4, memory_idle_timeout_s=60.0,
                     **kwargs)
        svc = tb.register_catalog_service("nginx")
        self.refetch(tb, svc)  # dispatch + plan miss
        self.refetch(tb, svc)  # FlowMemory re-miss + plan hit
        assert tb.controller.stats["slow_path_plan_hits"] == 1
        assert len(tb.controller._plan_memo) == 1
        return tb, svc

    @staticmethod
    def refetch(tb, svc, client=0):
        """Fetch, then wait out the switch idle timeout (not FlowMemory's)."""
        tb.client(client).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run(until=tb.sim.now + 5.0)

    def test_relevant_churn_invalidates_and_counts(self):
        tb, svc = self._warm()
        ctrl = tb.controller
        client_ip = tb.clients[0].ip
        ctrl.hosts[client_ip] = ctrl.hosts[client_ip]  # re-stamp the key
        before = PERF.memo_invalidations
        self.refetch(tb, svc)
        assert ctrl._plan_memo.stats()["invalidations"] == 1
        assert PERF.memo_invalidations == before + 1
        assert ctrl.stats["slow_path_plan_hits"] == 1  # recomputed, not reused
        assert len(ctrl._plan_memo) == 1  # the rebuilt plan took its place

    def test_plan_failing_revalidation_is_not_left_resident(self):
        tb, svc = self._warm()
        ctrl = tb.controller
        client_ip = tb.clients[0].ip
        ctrl.hosts[client_ip] = ctrl.hosts[client_ip]
        ctrl.cluster_attachments.clear()  # the rebuild now yields no plan
        failures = ctrl.stats["dispatch_failures"]
        self.refetch(tb, svc)
        assert ctrl.stats["dispatch_failures"] > failures  # SYN retries too
        assert len(ctrl._plan_memo) == 0

    def test_capacity_flush_counts(self):
        tb, svc = self._warm()
        ctrl = tb.controller
        ctrl._plan_memo = RevalidatingCache(
            token_of=ctrl._plan_token, generation_of=ctrl._plan_generation,
            capacity=2)
        before = PERF.memo_flushes
        for client in (0, 1, 2):
            self.refetch(tb, svc, client)
        assert ctrl._plan_memo.stats()["flushes"] == 1
        assert PERF.memo_flushes == before + 1

    def test_crash_reset_flushes_both_memos(self):
        tb, _svc = self._warm()
        ctrl = tb.controller
        assert len(ctrl._service_memo) > 0
        before = PERF.memo_flushes
        ctrl.on_crash()
        assert len(ctrl._plan_memo) == len(ctrl._service_memo) == 0
        assert PERF.memo_flushes == before + 2

"""Controller-side per-key revalidation: tokens, not flushes.

Two layers under test:

* :class:`repro.core.revalidation.RevalidatingCache` — the generic per-key
  revalidation memo, in isolation;
* the controller's service memo, its one instance — unrelated registry
  churn must leave memoized answers warm, relevant churn must drop exactly
  the affected entry, and a crash must flush it (counted in
  ``PERF.memo_flushes``).

That the memo is invisible from the outside is proven differentially in
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

    def test_crash_flushes_the_service_memo(self):
        tb = make_tb()
        svc = tb.register_catalog_service("nginx")
        tb.client(0).fetch(svc.service_id.addr, svc.service_id.port)
        tb.run()
        ctrl = tb.controller
        assert len(ctrl._service_memo) > 0
        before = PERF.memo_flushes
        ctrl.on_crash()
        assert len(ctrl._service_memo) == 0
        assert PERF.memo_flushes == before + 1

"""Per-key cache revalidation — the OVS-revalidator idea in memo form.

Keying a memo's validity on a *global* generation counter has one failure
mode: one churn event (a service registered or deregistered) wholesale-flushes
answers for a million unrelated keys. A :class:`RevalidatingCache` instead
keeps each entry alive across global churn and revalidates it
*individually* against a per-key token when — and only when — the global
counter has moved. The controller's service-decision memo is the one
instance; its token is ``ServiceRegistry.generation_of``.

The contract with the token provider: ``token_of(key)`` must compare equal
between two points in time **iff** the memoized computation for ``key``
would produce the same answer at both points; the cache itself stays
agnostic.

This module is the one place allowed to wholesale-``clear()`` a
generation-keyed memo (capacity bound, explicit crash reset) — the REP009
linter rule flags it anywhere else.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Optional, Tuple, TypeVar

from repro.metrics.perf import PERF

__all__ = ["RevalidatingCache"]

K = TypeVar("K")
V = TypeVar("V")
T = TypeVar("T")


class RevalidatingCache(Generic[K, V, T]):
    """A bounded memo dict whose entries revalidate per key, not per flush.

    Each entry stores the memoized value, the revalidation token under
    which it was computed, and the global generation at which it was last
    known fresh. :meth:`get` then answers in three tiers:

    * generation unchanged since the entry was last validated → O(1) hit;
      the token is not even recomputed. ``generation_of(key)`` may fold in
      counters the key selects, as long as "generation unchanged" still
      implies "token unchanged";
    * generation moved → recompute *this key's* token only; if it matches
      the stored one the value is still exact (a **revalidation** — the
      entry is re-stamped and survives), otherwise the entry is dropped
      (an **invalidation**) and the caller recomputes;
    * capacity overflow on :meth:`store` → wholesale flush, the only flush
      this layer performs (plus the explicit :meth:`flush` crash reset).

    A generation bump never clears the cache — that is the point.
    """

    __slots__ = ("_token_of", "_generation_of", "_capacity", "_entries",
                 "hits", "misses", "revalidations", "invalidations", "flushes")

    def __init__(self, token_of: Callable[[K], T],
                 generation_of: Callable[[K], object],
                 capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._token_of = token_of
        self._generation_of = generation_of
        self._capacity = capacity
        self._entries: Dict[K, Tuple[V, T, object]] = {}
        #: diagnostics (PERF mirrors the revalidation outcomes globally)
        self.hits = 0
        self.misses = 0
        self.revalidations = 0
        self.invalidations = 0
        self.flushes = 0

    def get(self, key: K) -> Tuple[bool, Optional[V]]:
        """``(True, value)`` when the memo answers, ``(False, None)`` when
        the caller must recompute (absent, or token changed)."""
        record = self._entries.get(key)
        if record is None:
            self.misses += 1
            return (False, None)
        value, token, seen_generation = record
        generation = self._generation_of(key)
        if generation == seen_generation:
            self.hits += 1
            return (True, value)
        fresh = self._token_of(key)
        if fresh == token:
            # Global churn was irrelevant to this key: keep the entry and
            # re-stamp it so the next lookup is O(1) again.
            self._entries[key] = (value, fresh, generation)
            self.hits += 1
            self.revalidations += 1
            PERF.memo_revalidations += 1
            return (True, value)
        del self._entries[key]
        self.misses += 1
        self.invalidations += 1
        PERF.memo_invalidations += 1
        return (False, None)

    def store(self, key: K, value: V) -> None:
        """Memoize ``value`` under the key's *current* token."""
        if len(self._entries) >= self._capacity:
            self.flush()
        self._entries[key] = (value, self._token_of(key),
                              self._generation_of(key))

    def flush(self) -> None:
        """Drop everything (capacity bound / crash reset)."""
        if self._entries:
            self.flushes += 1
            PERF.memo_flushes += 1
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "revalidations": self.revalidations,
            "invalidations": self.invalidations,
            "flushes": self.flushes,
        }

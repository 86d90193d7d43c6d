"""Flow table with priorities, timeouts, counters, and indexed lookup.

Lookup semantics follow OpenFlow: highest priority wins; among equal
priorities the result is unspecified in the spec — here it is
insertion order, deterministically. Idle timeouts are refreshed by every
matched packet; expiry is implemented with lazily re-armed timers so that a
busy flow costs O(1) per packet (no timer churn).

The table keeps two views of the same rule set:

* ``_entries`` — the list sorted by ``(-priority, seq)``. It is the ground
  truth for iteration order (``entries``, ``stats()``, non-strict delete).
* the **lookup index** — one dict from each entry's cached exact
  ``(ipv4_src, ipv4_dst)`` values (``None`` = wildcard) to the entries with
  that key, each list sorted by ``(-priority, seq)``; a ``(match,
  priority)`` exact-match index for install-overlap/strict-delete; and a
  per-match index for strict deletes without a priority. All three are
  maintained incrementally on install/remove/clear, so :meth:`lookup`,
  :meth:`install`, and strict :meth:`delete` never scan the table.

A packet can only match an entry whose exact src/dst conditions equal the
packet's (or are wildcarded), so the candidate lists for a lookup are the
four ``(src|None, dst|None)`` combinations; the winner is the match with the
smallest ``(-priority, seq)`` across them — the first match a linear scan of
``_entries`` would find. The tests hold that scan as the reference.
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.metrics.perf import PERF
from repro.openflow.actions import Action, ActionProgram
from repro.openflow.constants import OFPFF_SEND_FLOW_REM, OFPRR_DELETE, OFPRR_HARD_TIMEOUT, OFPRR_IDLE_TIMEOUT
from repro.openflow.match import FieldDict, Match

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore import Simulator

#: bucket key: the entry's cached exact (ipv4_src, ipv4_dst), None = wildcard
BucketKey = Tuple[Optional[Any], Optional[Any]]


def bucket_key(match: Match) -> BucketKey:
    """A rule's key in the lookup index: its exact ``ipv4_src`` and
    ``ipv4_dst`` conditions, None where it has none."""
    return (match.exact_value("ipv4_src"), match.exact_value("ipv4_dst"))


class FlowEntry:
    """One installed flow rule."""

    __slots__ = (
        "match", "priority", "actions", "program", "idle_timeout", "hard_timeout",
        "cookie", "flags", "installed_at", "last_used", "packet_count",
        "byte_count", "_idle_timer", "_hard_timer", "removed",
        "bucket_key", "seq", "sort_key", "_sim",
    )

    def __init__(
        self,
        match: Match,
        priority: int,
        actions: List[Action],
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
        cookie: int = 0,
        flags: int = 0,
        now: float = 0.0,
    ) -> None:
        self.match = match
        #: the cached exact (ipv4_src, ipv4_dst) conditions: the entry's key
        #: in the table's lookup index
        self.bucket_key = bucket_key(match)
        self.priority = priority
        self.actions = list(actions)
        #: the list compiled once for the per-packet path; owned by the
        #: entry and dropped with it
        self.program = ActionProgram(self.actions)
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout
        self.cookie = cookie
        self.flags = flags
        self.installed_at = now
        self.last_used = now
        self.packet_count = 0
        self.byte_count = 0
        self._idle_timer: Optional[Any] = None
        self._hard_timer: Optional[Any] = None
        self.removed = False
        #: insertion sequence within the owning table; assigned by
        #: :meth:`FlowTable.install` and the tiebreaker among equal
        #: priorities (stored on the entry itself — never keyed by ``id()``,
        #: which can be reused after garbage collection).
        self.seq = 0
        #: table order, ``(-priority, seq)``; set with ``seq`` at install
        self.sort_key: Tuple[int, int] = (-priority, 0)
        self._sim: Optional["Simulator"] = None

    @property
    def duration(self) -> float:
        """OpenFlow duration: seconds since installation (``now -
        installed_at``), matching ``FlowTable.stats()`` and the switch's
        ``FlowRemoved`` messages — *not* the last-used timestamp."""
        if self._sim is not None:
            return self._sim.now - self.installed_at
        return 0.0

    def touch(self, now: float, nbytes: int) -> None:
        self.packet_count += 1
        self.byte_count += nbytes
        self.last_used = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlowEntry prio={self.priority} {self.match!r} "
                f"pkts={self.packet_count} idle={self.idle_timeout}>")


_sort_key = attrgetter("sort_key")

#: the index key of entries exact in neither ipv4_src nor ipv4_dst
_ANY: BucketKey = (None, None)


class FlowTable:
    """A single OpenFlow table (table 0).

    ``on_removed(entry, reason)`` is invoked for entries that carried
    ``OFPFF_SEND_FLOW_REM`` — the switch turns this into a ``FlowRemoved``
    message to the controller.

    The table looks up and counts; it does not judge its own rule set.
    Properties of the rules as a whole (dead rules, redirect pairing,
    loops) are computed by ``repro.verify`` on a frozen snapshot.
    """

    def __init__(self, sim: "Simulator", name: str = "table0",
                 on_removed: Optional[Callable[[FlowEntry, int], None]] = None) -> None:
        self.sim = sim
        self.name = name
        self.on_removed = on_removed
        # Kept sorted by (-priority, entry.seq) for deterministic iteration.
        self._entries: List[FlowEntry] = []
        self._insert_seq = 0
        # ---- lookup index (maintained incrementally; see module docstring)
        #: (src, dst) key -> entries in table order
        self._index: Dict[BucketKey, List[FlowEntry]] = {}
        #: (match, priority) -> entry; unique by install-replacement
        self._match_index: Dict[Tuple[Match, int], FlowEntry] = {}
        #: match -> entries (any priority), for strict delete w/o priority
        self._by_match: Dict[Match, List[FlowEntry]] = {}
        #: cumulative diagnostics
        self.lookups = 0
        self.hits = 0

    # -------------------------------------------------------------- install

    def install(self, entry: FlowEntry) -> None:
        """Add ``entry``; an existing entry with identical match+priority is
        replaced (OFPFC_ADD overlap semantics with reset counters)."""
        existing = self._match_index.get((entry.match, entry.priority))
        if existing is not None:
            self._remove_entry(existing, OFPRR_DELETE, notify=False)
        self._insert_seq += 1
        entry.seq = self._insert_seq
        entry.sort_key = (-entry.priority, entry.seq)
        entry.removed = False  # a reinstalled entry is live again
        entry._sim = self.sim
        # The seq lives on the entry itself (not an id()-keyed side table,
        # which a GC'd-and-reallocated entry could silently corrupt), so the
        # sort key is intrinsic and insertion is a plain bisect.
        bisect.insort(self._entries, entry, key=_sort_key)
        self._index_add(entry)
        entry.installed_at = self.sim.now
        entry.last_used = self.sim.now
        if entry.hard_timeout > 0:
            entry._hard_timer = self.sim.schedule(entry.hard_timeout, self._hard_expire, entry)
        if entry.idle_timeout > 0:
            entry._idle_timer = self.sim.schedule(entry.idle_timeout, self._idle_check, entry)

    def _index_add(self, entry: FlowEntry) -> None:
        bisect.insort(self._index.setdefault(entry.bucket_key, []), entry, key=_sort_key)
        self._match_index[(entry.match, entry.priority)] = entry
        self._by_match.setdefault(entry.match, []).append(entry)

    def _index_remove(self, entry: FlowEntry) -> None:
        bucket = self._index[entry.bucket_key]
        bucket.remove(entry)
        if not bucket:
            del self._index[entry.bucket_key]
        del self._match_index[(entry.match, entry.priority)]
        peers = self._by_match[entry.match]
        peers.remove(entry)
        if not peers:
            del self._by_match[entry.match]

    # --------------------------------------------------------------- lookup

    def lookup(self, fields: FieldDict) -> Optional[FlowEntry]:
        """Return the highest-priority matching entry, touching nothing.

        Probes the (at most four) index lists whose exact src/dst key is
        compatible with the packet. Each list is in table order, so its
        walk ends at its first match, or at the first entry that ranks no
        better than the best match found so far.
        """
        self.lookups += 1
        PERF.flow_lookups += 1
        index = self._index
        src = fields["ipv4_src"] if "ipv4_src" in fields else None
        dst = fields["ipv4_dst"] if "ipv4_dst" in fields else None
        if src is None:
            keys: Tuple[BucketKey, ...] = (((None, dst), _ANY) if dst is not None
                                           else (_ANY,))
        elif dst is None:
            keys = ((src, None), _ANY)
        else:
            keys = ((src, dst), (src, None), (None, dst), _ANY)
        best: Optional[FlowEntry] = None
        for key in keys:
            if key not in index:
                continue
            for entry in index[key]:
                if best is not None and entry.sort_key >= best.sort_key:
                    break
                if entry.match.matches(fields):
                    best = entry
                    break
        if best is not None:
            self.hits += 1
            PERF.flow_hits += 1
        return best

    # -------------------------------------------------------------- timeouts

    def _idle_check(self, entry: FlowEntry) -> None:
        if entry.removed:
            return
        deadline = entry.last_used + entry.idle_timeout
        if self.sim.now >= deadline - 1e-12:
            self._remove_entry(entry, OFPRR_IDLE_TIMEOUT)
        else:
            # Re-arm for the remaining time (lazy refresh).
            entry._idle_timer = self.sim.schedule(max(0.0, deadline - self.sim.now), self._idle_check, entry)

    def _hard_expire(self, entry: FlowEntry) -> None:
        if not entry.removed:
            self._remove_entry(entry, OFPRR_HARD_TIMEOUT)

    # --------------------------------------------------------------- delete

    def delete(self, match: Match, strict: bool = False,
               priority: Optional[int] = None, cookie: Optional[int] = None) -> int:
        """OFPFC_DELETE(_STRICT): remove matching entries, return count."""
        victims: List[FlowEntry]
        if strict:
            if priority is not None:
                found = self._match_index.get((match, priority))
                victims = [found] if found is not None else []
            else:
                # all priorities with this exact match, in table order
                victims = sorted(self._by_match.get(match, ()), key=_sort_key)
            if cookie is not None:
                victims = [entry for entry in victims if entry.cookie == cookie]
        else:
            victims = []
            for entry in self._entries:
                if cookie is not None and entry.cookie != cookie:
                    continue
                if match.covers(entry.match):
                    victims.append(entry)
        for entry in victims:
            self._remove_entry(entry, OFPRR_DELETE)
        return len(victims)

    def _remove_entry(self, entry: FlowEntry, reason: int, notify: bool = True) -> None:
        entry.removed = True
        if entry._idle_timer is not None:
            entry._idle_timer.cancel()
        if entry._hard_timer is not None:
            entry._hard_timer.cancel()
        # Sort keys are intrinsic and unique, so the entry's slot is found
        # by bisect instead of a linear scan.
        index = bisect.bisect_left(self._entries, entry.sort_key, key=_sort_key)
        if index < len(self._entries) and self._entries[index] is entry:
            del self._entries[index]
            self._index_remove(entry)
        if notify and self.on_removed is not None and (entry.flags & OFPFF_SEND_FLOW_REM):
            self.on_removed(entry, reason)

    def clear(self) -> None:
        for entry in list(self._entries):
            self._remove_entry(entry, OFPRR_DELETE, notify=False)

    # ---------------------------------------------------------------- stats

    @property
    def entries(self) -> List[FlowEntry]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> List[dict]:
        """Flow-stats snapshot (what a FlowStatsReply carries)."""
        return [
            {
                "match": entry.match,
                "priority": entry.priority,
                "cookie": entry.cookie,
                "flags": entry.flags,
                "actions": list(entry.actions),
                "packet_count": entry.packet_count,
                "byte_count": entry.byte_count,
                "duration": entry.duration,
                "idle_timeout": entry.idle_timeout,
                "hard_timeout": entry.hard_timeout,
            }
            for entry in self._entries
        ]

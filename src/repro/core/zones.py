"""Proximity model: zones and inter-zone RTTs.

Edge clusters are organised hierarchically (§IV-A2): clusters close to the
users are small, clusters on the route to the cloud are bigger and more
likely to have images cached or instances running. A :class:`ZoneMap`
captures that geometry as named zones with pairwise RTTs; the Global
Scheduler uses it to rank clusters by proximity to the requesting client.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.core.trie import PrefixTrie, prefix_mask
from repro.netsim.addresses import IPv4


class ZoneMap:
    """Named zones with symmetric pairwise RTTs and client-IP assignment."""

    def __init__(self, default_rtt_s: float = 0.050):
        self._rtt: Dict[Tuple[str, str], float] = {}
        self._client_zone: Dict[IPv4, str] = {}
        #: subnet -> zone assignment, longest-prefix-match semantics
        self._subnet_zone: PrefixTrie[str] = PrefixTrie()
        self.default_rtt_s = default_rtt_s
        self._zones: set[str] = set()

    # ------------------------------------------------------------ topology

    def set_rtt(self, a: str, b: str, rtt_s: float) -> None:
        if rtt_s < 0:
            raise ValueError("negative RTT")
        self._zones.update((a, b))
        self._rtt[(a, b)] = rtt_s
        self._rtt[(b, a)] = rtt_s

    def rtt(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        return self._rtt.get((a, b), self.default_rtt_s)

    @property
    def zones(self) -> set:
        return set(self._zones)

    # ------------------------------------------------------------- clients

    def assign_client(self, addr: IPv4, zone: str) -> None:
        self._zones.add(zone)
        self._client_zone[addr] = zone

    def assign_subnet(self, network: IPv4, prefix_len: int, zone: str) -> None:
        """Assign a whole subnet to a zone (longest-prefix-match wins over
        wider assignments; re-assigning an identical prefix replaces it)."""
        self._zones.add(zone)
        self._subnet_zone.insert(network.value & prefix_mask(prefix_len),
                                 prefix_len, zone)

    def zone_of(self, addr: IPv4, default: str = "default") -> str:
        zone = self._client_zone.get(addr)
        if zone is not None:
            return zone
        match = self._subnet_zone.lookup(addr.value)
        if match is not None:
            return match[2]
        return default

    def nearest(self, client_zone: str, candidates: Iterable[str]) -> Optional[str]:
        best: Optional[str] = None
        best_rtt = float("inf")
        for zone in candidates:
            rtt = self.rtt(client_zone, zone)
            # Ties break on the zone name, NOT on iteration order: callers
            # pass sets, and "first seen wins" would make the winner depend
            # on PYTHONHASHSEED (REP003).
            if rtt < best_rtt or (rtt == best_rtt
                                  and best is not None and zone < best):
                best, best_rtt = zone, rtt
        return best

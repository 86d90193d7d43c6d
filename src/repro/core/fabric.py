"""The switch fabric: topology knowledge for multi-switch deployments.

The evaluation testbed has one virtual OVS switch (fig. 8), but the concept
(fig. 1/2) is a 5G network where the ingress gNB switch, aggregation
switches, and the switches in front of edge clusters are distinct datapaths.
A :class:`FabricTopology` gives the controller what a real deployment learns
via LLDP: which (dpid, port) pairs interconnect switches, and shortest paths
between any two datapaths (Dijkstra over the link weights, e.g. latency).

The controller uses it to install the redirection flows *along the whole
path*: full rewrite at the client's ingress switch and at the egress switch
in front of the instance, plain 5-tuple forwarding entries at transit
switches.
"""

from __future__ import annotations

import heapq
from itertools import count
from math import inf
from typing import Dict, List, Tuple


class FabricError(ValueError):
    """Inconsistent fabric description or unroutable path."""


class FabricTopology:
    """Inter-switch connectivity + shortest-path routing."""

    def __init__(self):
        #: dpid -> {neighbour dpid: link weight}, both directions, in the
        #: order the links were added
        self._adjacency: Dict[int, Dict[int, float]] = {}
        #: (dpid_a, dpid_b) -> port on dpid_a toward dpid_b
        self._ports: Dict[Tuple[int, int], int] = {}
        self._paths_cache: Dict[Tuple[int, int], List[int]] = {}

    # ------------------------------------------------------------- building

    def add_switch(self, dpid: int) -> None:
        self._adjacency.setdefault(dpid, {})

    def add_link(self, dpid_a: int, port_a: int, dpid_b: int, port_b: int,
                 weight: float = 1.0) -> None:
        """Register an inter-switch link (both directions)."""
        if dpid_a == dpid_b:
            raise FabricError("self-links are not allowed")
        if weight < 0:
            raise FabricError("link weights must be non-negative")
        for key in ((dpid_a, dpid_b), (dpid_b, dpid_a)):
            if key in self._ports:
                raise FabricError(f"link {dpid_a}<->{dpid_b} already present")
        self._adjacency.setdefault(dpid_a, {})[dpid_b] = weight
        self._adjacency.setdefault(dpid_b, {})[dpid_a] = weight
        self._ports[(dpid_a, dpid_b)] = port_a
        self._ports[(dpid_b, dpid_a)] = port_b
        # A new link can shorten ANY path, so full-flush is already the
        # finest correct granularity here (topology mutations are rare,
        # build-time-only events).
        self._paths_cache.clear()  # repro: noqa[REP009]

    # -------------------------------------------------------------- queries

    @property
    def switches(self) -> List[int]:
        return sorted(self._adjacency)

    def has_switch(self, dpid: int) -> bool:
        return dpid in self._adjacency

    def path(self, src_dpid: int, dst_dpid: int) -> List[int]:
        """Cheapest dpid path from ``src`` to ``dst`` (inclusive) by summed
        link weight. Among equal-cost paths the first one found wins: the
        search settles switches in order of cost, then of discovery, and
        scans each switch's neighbours in the order their links were added."""
        if src_dpid == dst_dpid:
            return [src_dpid]
        key = (src_dpid, dst_dpid)
        cached = self._paths_cache.get(key)
        if cached is None:
            cached = self._dijkstra(src_dpid, dst_dpid)
            self._paths_cache[key] = cached
        return list(cached)

    def _dijkstra(self, src_dpid: int, dst_dpid: int) -> List[int]:
        adjacency = self._adjacency
        if src_dpid not in adjacency or dst_dpid not in adjacency:
            raise FabricError(f"no path {src_dpid} -> {dst_dpid}: unknown switch")
        pushes = count()  # heap tie-break: discovery order, never the dpid
        heap = [(0.0, next(pushes), src_dpid)]
        best: Dict[int, float] = {src_dpid: 0.0}
        previous: Dict[int, int] = {}
        while heap:
            cost, _, dpid = heapq.heappop(heap)
            if cost > best[dpid]:
                continue  # superseded by a cheaper push
            if dpid == dst_dpid:
                found = [dpid]
                while dpid != src_dpid:
                    dpid = previous[dpid]
                    found.append(dpid)
                return found[::-1]
            for neighbour, weight in adjacency[dpid].items():
                through = cost + weight
                if through < best.get(neighbour, inf):
                    best[neighbour] = through
                    previous[neighbour] = dpid
                    heapq.heappush(heap, (through, next(pushes), neighbour))
        raise FabricError(f"no path {src_dpid} -> {dst_dpid}")

    def port_toward(self, src_dpid: int, next_dpid: int) -> int:
        """Output port on ``src`` that reaches the adjacent ``next`` switch."""
        port = self._ports.get((src_dpid, next_dpid))
        if port is None:
            raise FabricError(f"{src_dpid} and {next_dpid} are not adjacent")
        return port

    def hops(self, src_dpid: int, dst_dpid: int) -> int:
        return len(self.path(src_dpid, dst_dpid)) - 1

    def is_interswitch_port(self, dpid: int, port: int) -> bool:
        """True when (dpid, port) faces another switch — host-location
        learning must ignore packets arriving there (as LLDP-aware
        controllers do)."""
        return any(src == dpid and p == port
                   for (src, _), p in self._ports.items())

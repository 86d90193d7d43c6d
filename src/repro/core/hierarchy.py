"""Hierarchical edge organisation (§IV-A2).

"Edge clusters are usually organized hierarchically. Clusters in close
vicinity of the users tend to be smaller, with cluster size and performance
growing when further away (i.e., located closer to the 'cloud'). As a
result, a 'non-optimal' (further away, but on the route to the cloud) edge
cluster is much more likely to have the requested service cached or even
running already."

:class:`EdgeHierarchy` captures the parent-toward-cloud relation;
:class:`HierarchicalScheduler` exploits it: when the optimal (nearest) edge
is cold and the latency budget is tight, it walks *up the route to the
cloud* looking for a running instance first, then for a cluster that at
least has the images cached — instead of blindly picking any ready cluster
the way the flat proximity policy does.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.scheduler import GlobalScheduler, Placement, ScheduleRequest, estimate_time_to_ready
from repro.core.zones import ZoneMap
from repro.edge.cluster import EdgeCluster


class EdgeHierarchy:
    """Cluster name → parent-cluster name (None = top tier, next hop is the
    cloud itself)."""

    def __init__(self, parents: Dict[str, Optional[str]]):
        self._parents: Dict[str, Optional[str]] = dict(parents)
        for cluster, parent in self._parents.items():
            if parent is not None and self._creates_cycle(cluster, parent):
                raise ValueError(f"parent {parent!r} of {cluster!r} "
                                 "creates a cycle")

    def _creates_cycle(self, cluster: str, parent: str) -> bool:
        seen = {cluster}
        node: Optional[str] = parent
        while node is not None:
            if node in seen:
                return True
            seen.add(node)
            node = self._parents.get(node)
        return False

    def parent(self, cluster: str) -> Optional[str]:
        return self._parents.get(cluster)

    def ancestors(self, cluster: str) -> List[str]:
        """Parents in order, nearest first (the route toward the cloud)."""
        out: List[str] = []
        node = self._parents.get(cluster)
        while node is not None:
            out.append(node)
            node = self._parents.get(node)
        return out

    def __contains__(self, cluster: str) -> bool:
        return cluster in self._parents


class HierarchicalScheduler(GlobalScheduler):
    """Proximity at the leaves, hierarchy on the escape path.

    Decision procedure:

    1. optimal = the client's nearest (leaf) cluster, as with proximity;
    2. optimal ready → FAST = optimal;
    3. no budget, or cold start within budget → FAST = optimal
       (on-demand deployment *with waiting*);
    4. budget exceeded: walk optimal's ancestors toward the cloud —
       a. first ancestor with a **running** instance → FAST = it,
          BEST = optimal (*without waiting*, fig. 3);
       b. else first ancestor with the **images cached** → FAST = that
          ancestor (its cold start skips the pull), BEST = optimal;
       c. else any ready cluster anywhere → FAST = nearest ready,
          BEST = optimal;
       d. else FAST = None (toward the cloud), BEST = optimal.
    """

    name = "hierarchical"

    def __init__(self, zones: ZoneMap, hierarchy: EdgeHierarchy):
        self.zones = zones
        self.hierarchy = hierarchy

    def _by_name(self, clusters: Sequence[EdgeCluster]) -> Dict[str, EdgeCluster]:
        return {cluster.name: cluster for cluster in clusters}

    def schedule(self, request: ScheduleRequest) -> Placement:
        if not request.clusters:
            return Placement(fast=None)
        ready_ids = {id(inst.cluster) for inst in self.ready_instances(request)}
        ranked = sorted(request.clusters,
                        key=lambda c: (self.zones.rtt(request.client_zone, c.zone),
                                       id(c) not in ready_ids, c.name))
        optimal = ranked[0]
        if id(optimal) in ready_ids:
            return Placement(fast=optimal)

        budget = request.service.max_initial_delay_s
        if budget is None or estimate_time_to_ready(
                optimal, request.service.spec) <= budget:
            return Placement(fast=optimal)

        by_name = self._by_name(request.clusters)
        spec = request.service.spec
        ancestors = [by_name[name] for name in self.hierarchy.ancestors(optimal.name)
                     if name in by_name]
        # 4a. running instance up the route to the cloud
        for ancestor in ancestors:
            if id(ancestor) in ready_ids:
                return Placement(fast=ancestor, best=optimal)
        # 4b. cached images up the route
        for ancestor in ancestors:
            if ancestor.has_images(spec):
                return Placement(fast=ancestor, best=optimal)
        # 4c. any ready cluster, nearest first
        for cluster in ranked:
            if id(cluster) in ready_ids:
                return Placement(fast=cluster, best=optimal)
        # 4d. give up: cloud serves the first request
        return Placement(fast=None, best=optimal)

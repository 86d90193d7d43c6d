"""Operational management surface over a running platform ("edgectl").

The paper's open-source system is operated by a mobile edge platform
provider: services get registered/deregistered at runtime, clusters go in
and out of maintenance. :class:`EdgeAdmin` wraps those operations with the
bookkeeping each one needs to be *safe* on a live data path:

* deregistering a service also withdraws its redirections — switch flows
  and memorized decisions (otherwise stale rewrites would keep redirecting
  traffic);
* draining a cluster removes it from scheduling, withdraws every
  redirection pointing at it, and scales its instances down — in that
  order, so no new request is dispatched to a cluster that is about to lose
  its instances.

Both go through :meth:`TransparentEdgeController.withdraw`, which deletes
each redirection by its cookie.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.core.registry import EdgeService
from repro.core.serviceid import ServiceID

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import TransparentEdgeController
    from repro.edge.cluster import EdgeCluster
    from repro.simcore import Process


class EdgeAdmin:
    """Admin API bound to a running :class:`TransparentEdgeController`."""

    def __init__(self, controller: "TransparentEdgeController"):
        self.controller = controller
        self._drained: Dict[str, "EdgeCluster"] = {}

    # ------------------------------------------------------------ inspection

    def list_services(self) -> List[dict]:
        """One row per registered service with live instance state."""
        out = []
        for service in self.controller.registry.services():
            instances = []
            for cluster in self._all_clusters():
                for info in cluster.instances(service.spec):
                    instances.append({"cluster": cluster.name,
                                      "endpoint": str(info.endpoint),
                                      "ready": info.ready})
            out.append({
                "service_id": str(service.service_id),
                "name": service.name,
                "instances": instances,
                "memorized_flows": len(
                    self.controller.memory.matching(service_id=service.service_id)),
            })
        return out

    def service_status(self, service_id: ServiceID) -> Optional[dict]:
        """A registered service's deployment history and live instances.

        ``"deployments"`` lists the successful runs that did work — a cold
        start or a scale-up, retried or not (failed runs are in
        ``DeploymentEngine.records_for(include_failed=True)``). A warm reuse
        is not a deployment and leaves no row; the engine only counts it in
        ``warm_reuses``. ``None`` when ``service_id`` is not registered.
        """
        service = self.controller.registry.lookup(
            service_id.addr, service_id.port, service_id.protocol)
        if service is None:
            return None
        engine = self.controller.dispatcher.engine
        return {
            "service_id": str(service_id),
            "name": service.name,
            "max_initial_delay_s": service.max_initial_delay_s,
            "deployments": [
                {"cluster": record.cluster, "total_s": record.total_s,
                 "cold": record.cold_start, "phases": dict(record.phases)}
                for record in engine.records_for(service=service.name)
            ],
            "instances": [
                {"cluster": cluster.name, "ready": info.ready,
                 "endpoint": str(info.endpoint)}
                for cluster in self._all_clusters()
                for info in cluster.instances(service.spec)
            ],
        }

    def cluster_status(self) -> List[dict]:
        out = []
        for cluster in self._all_clusters():
            runtime = getattr(cluster, "runtime", None)
            out.append({
                "name": cluster.name,
                "type": cluster.cluster_type,
                "zone": cluster.zone,
                "drained": cluster.name in self._drained,
                "active_flows": self.controller.dispatcher.load.get(cluster.name, 0),
                "ops": dict(cluster.ops),
                "cached_bytes": runtime.cached_layer_bytes() if runtime else None,
            })
        return out

    def failure_counters(self) -> Dict[str, int]:
        """Platform-wide failure/resilience counters (docs/faults.md):
        dispatch failures, deployment retries, breaker opens, cloud
        fallbacks, evictions, injected pull failures/crashes, outages."""
        from repro.metrics.failures import snapshot_failures
        return snapshot_failures(
            controller=self.controller,
            clusters=self._all_clusters()).as_dict()

    def flow_table_snapshot(self) -> List[dict]:
        """Flows currently installed across all switches."""
        out = []
        for datapath in self.controller.manager.datapaths.values():
            for stat in datapath.switch.table.stats():
                out.append({"dpid": datapath.id, **stat,
                            "match": repr(stat["match"])})
        return out

    def _all_clusters(self) -> List["EdgeCluster"]:
        return list(self.controller.dispatcher.clusters) + list(self._drained.values())

    # ------------------------------------------------------------ operations

    def register_service(self, service_id: ServiceID,
                         yaml_text: Optional[str] = None,
                         image: Optional[str] = None,
                         container_port: Optional[int] = None,
                         max_initial_delay_s: Optional[float] = None) -> EdgeService:
        """Register a service on the live platform."""
        return self.controller.registry.register(
            service_id, yaml_text=yaml_text, image=image,
            container_port=container_port,
            max_initial_delay_s=max_initial_delay_s)

    def deregister_service(self, service_id: ServiceID,
                           undeploy: bool = True) -> Optional["Process"]:
        """Deregister + clean the data path; optionally remove instances.

        Returns the undeploy process (or None). After this returns, new
        packets to the address route like any unregistered (cloud) traffic.
        """
        controller = self.controller
        service = controller.registry.deregister(service_id)
        if service is None:
            return None
        controller.withdraw(service_id=service.service_id)
        if not undeploy:
            return None

        engine = controller.dispatcher.engine
        sim = controller.sim

        def undeploy_proc() -> Iterator["Process"]:
            for cluster in self._all_clusters():
                if cluster.is_created(service.spec):
                    yield engine.remove(cluster, service)

        return sim.spawn(undeploy_proc(), name=f"undeploy:{service.name}")

    def drain_cluster(self, name: str) -> Optional["Process"]:
        """Take a cluster out of service (maintenance).

        1. remove it from the Dispatcher's candidate list (no new FAST/BEST
           placements),
        2. withdraw every redirection to it (memorized decisions, switch
           flows and their load),
        3. scale down everything it runs.
        """
        controller = self.controller
        dispatcher = controller.dispatcher
        cluster = next((c for c in dispatcher.clusters if c.name == name), None)
        if cluster is None:
            return None
        dispatcher.clusters.remove(cluster)
        self._drained[name] = cluster
        controller.withdraw(cluster=cluster)

        engine = dispatcher.engine
        sim = controller.sim

        def drain_proc() -> Iterator["Process"]:
            for service in controller.registry.services():
                if cluster.is_ready(service.spec):
                    yield engine.scale_down(cluster, service)

        controller.log("cluster-drained", cluster=name)
        return sim.spawn(drain_proc(), name=f"drain:{name}")

    def undrain_cluster(self, name: str) -> bool:
        """Return a drained cluster to scheduling."""
        cluster = self._drained.pop(name, None)
        if cluster is None:
            return False
        self.controller.dispatcher.clusters.append(cluster)
        self.controller.log("cluster-undrained", cluster=name)
        return True

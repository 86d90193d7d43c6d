"""The Dispatcher: the controller's decision loop (fig. 7).

For a packet with no memorized flow, the Dispatcher

1. gathers the list of existing and running instances of the requested
   service across all clusters,
2. passes it (with the client's location) to the Global Scheduler,
3. receives the FAST choice (current request) and BEST choice (future
   requests),
4. ensures both chosen instances are created and scaled up — waiting for
   FAST, running BEST in the background,
5. returns where to redirect the client's request (or "toward the cloud").

It also tracks clients' current locations and per-cluster load, and feeds
the Scheduler with that system state (§IV-B: the Dispatcher "feeds the
Scheduler with information about the current system state").

Resilience: each cluster sits behind a :class:`~repro.core.resilience.
CircuitBreaker`. Deployment failures (typed ``DeploymentError`` from the
engine) feed the breaker; after ``failure_threshold`` consecutive failures
the cluster is excluded from scheduling until its probation probe succeeds.
A failed FAST deployment never raises out of the dispatch — the result
degrades to "toward the cloud", which is the transparent fallback the paper's
architecture gets for free (the client addressed the cloud all along).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.deployment import DeploymentEngine, DeploymentError
from repro.core.flowmemory import FlowMemory
from repro.core.registry import EdgeService
from repro.core.resilience import BreakerConfig, CircuitBreaker
from repro.core.scheduler import GlobalScheduler, Placement, ScheduleRequest
from repro.core.zones import ZoneMap
from repro.edge.cluster import EdgeCluster, Endpoint, InstanceInfo
from repro.netsim.addresses import IPv4
from repro.simcore.errors import ProcessKilled

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore import Process, Simulator


@dataclass
class DispatchResult:
    """Where the current request goes."""

    #: ready endpoint to redirect to; None → forward toward the cloud
    endpoint: Optional[Endpoint]
    cluster: Optional[EdgeCluster]
    #: a BEST deployment was started in the background (without-waiting mode)
    background_best: bool = False
    #: the request waited for an on-demand deployment
    waited: bool = False
    #: the FAST deployment failed and the request degraded toward the cloud
    deploy_failed: bool = False

    @property
    def toward_cloud(self) -> bool:
        return self.endpoint is None


class Dispatcher:
    """Implements the fig. 7 flow chart against the cluster inventory."""

    def __init__(
        self,
        sim: "Simulator",
        clusters: List[EdgeCluster],
        scheduler: GlobalScheduler,
        engine: DeploymentEngine,
        memory: FlowMemory,
        zones: Optional[ZoneMap] = None,
        breaker_config: Optional[BreakerConfig] = None,
        use_breaker: bool = True,
    ):
        self.sim = sim
        self.clusters = list(clusters)
        self.scheduler = scheduler
        self.engine = engine
        self.memory = memory
        self.zones = zones if zones is not None else ZoneMap()
        #: circuit-breaker health tracking (one breaker per cluster)
        self.use_breaker = use_breaker
        self.breaker_config = (breaker_config if breaker_config is not None
                               else BreakerConfig())
        self._breakers: Dict[str, CircuitBreaker] = {}
        #: ensure-processes already feeding a breaker (avoid double counting
        #: when coalesced dispatches share one deployment)
        self._watched: Dict[int, None] = {}
        #: client ip -> zone (current location tracking)
        self._client_locations: Dict[IPv4, str] = {}
        #: cluster name -> active flow count (load signal for schedulers)
        self.load: Dict[str, int] = {}
        #: diagnostics
        self.dispatches = 0
        self.cloud_fallbacks = 0
        self.without_waiting = 0
        #: FAST deployments that failed and degraded toward the cloud
        self.deploy_failures = 0

    # ----------------------------------------------------------- locations

    def observe_client(self, client: IPv4) -> str:
        zone = self.zones.zone_of(client)
        self._client_locations[client] = zone
        return zone

    def client_zone(self, client: IPv4) -> str:
        return self._client_locations.get(client) or self.zones.zone_of(client)

    def set_client_zone(self, client: IPv4, zone: str) -> None:
        """Authoritatively place ``client`` in ``zone`` (handover): updates
        both the ZoneMap assignment and the tracked current location."""
        self.zones.assign_client(client, zone)
        self._client_locations[client] = zone

    # --------------------------------------------------------------- health

    def breaker_for(self, cluster: EdgeCluster) -> CircuitBreaker:
        breaker = self._breakers.get(cluster.name)
        if breaker is None:
            breaker = CircuitBreaker(self.sim, cluster.name, self.breaker_config)
            self._breakers[cluster.name] = breaker
        return breaker

    @property
    def breaker_opens(self) -> int:
        return sum(b.opens for b in self._breakers.values())

    def schedulable_clusters(self) -> List[EdgeCluster]:
        """Clusters whose breaker currently admits a dispatch.

        Half-open breakers claim their single probation slot here; the slot
        is released again for every candidate the scheduler did not pick."""
        if not self.use_breaker:
            return list(self.clusters)
        return [c for c in self.clusters if self.breaker_for(c).allow()]

    def _record_outcome(self, cluster: EdgeCluster, ok: bool) -> None:
        if not self.use_breaker:
            return
        breaker = self.breaker_for(cluster)
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()

    def _watch_deployment(self, cluster: EdgeCluster, process: "Process") -> None:
        """Feed a background deployment's outcome into the cluster breaker."""
        if not self.use_breaker or id(process) in self._watched:
            return
        # id-keyed on purpose: a dedup marker that must not pin the process
        # object alive, never iterated or traced.
        self._watched[id(process)] = None  # repro: noqa[REP007]

        def done(proc: "Process") -> None:
            self._watched.pop(id(proc), None)  # repro: noqa[REP007]
            exc = proc.exception
            if isinstance(exc, ProcessKilled):
                return  # cancelled, not a health signal
            self._record_outcome(cluster, ok=exc is None)

        process._wait_subscribe(done)

    # ------------------------------------------------------------ inventory

    def gather_instances(self, service: EdgeService,
                         clusters: Optional[List[EdgeCluster]] = None,
                         ) -> List[InstanceInfo]:
        """The "gather list of existing+running instances" box of fig. 7."""
        instances: List[InstanceInfo] = []
        for cluster in (clusters if clusters is not None else self.clusters):
            instances.extend(cluster.instances(service.spec))
        return instances

    def note_flow_installed(self, cluster: EdgeCluster) -> None:
        self.load[cluster.name] = self.load.get(cluster.name, 0) + 1

    def note_flow_removed(self, cluster: EdgeCluster) -> None:
        count = self.load.get(cluster.name, 0)
        self.load[cluster.name] = max(0, count - 1)

    # -------------------------------------------------------------- dispatch

    def dispatch(self, client: IPv4, service: EdgeService) -> "Process":
        """Run the full decision (a process yielding a DispatchResult)."""
        return self.sim.spawn(self._dispatch_proc(client, service),
                              name=("dispatch", client, service.name))

    def _dispatch_proc(self, client: IPv4, service: EdgeService):
        self.dispatches += 1
        zone = self.observe_client(client)
        candidates = self.schedulable_clusters()
        # Gathering existing+running instances costs real API round trips to
        # every cluster (fig. 7's first box) — the cost FlowMemory avoids on
        # re-misses. The queries run concurrently; the slowest one gates.
        if candidates:
            yield self.sim.timeout(max(c.inventory_query_s for c in candidates))
        instances = self.gather_instances(service, candidates)
        placement: Placement = self.scheduler.schedule(ScheduleRequest(
            service=service,
            client_zone=zone,
            instances=instances,
            clusters=candidates,
            load=dict(self.load),
        ))

        # Candidates the scheduler passed over must hand back any half-open
        # probation slot they claimed in schedulable_clusters().
        if self.use_breaker:
            for cluster in candidates:
                if cluster is not placement.fast and cluster is not placement.best:
                    self.breaker_for(cluster).release_probe()

        # BEST: deploy in the background for future requests (fig. 3).
        background_best = False
        if placement.best is not None:
            background_best = True
            self.without_waiting += 1
            best_proc = self.engine.ensure_available(placement.best, service)
            if placement.best is not placement.fast:
                # fast is awaited below and reports its own outcome
                self._watch_deployment(placement.best, best_proc)

        if placement.fast is None:
            self.cloud_fallbacks += 1
            return DispatchResult(endpoint=None, cluster=None,
                                  background_best=background_best)

        fast = placement.fast
        waited = not fast.is_ready(service.spec)
        try:
            endpoint = yield self.engine.ensure_available(fast, service)
        except ProcessKilled:
            raise  # this dispatch itself was killed
        except DeploymentError as exc:
            # Guaranteed disposition: a broken edge degrades the request to
            # the cloud path — the client must never hang on our account.
            self._record_outcome(fast, ok=False)
            self.deploy_failures += 1
            self.cloud_fallbacks += 1
            self.sim.trace.emit(self.sim.now, "dispatch", "deploy-failed",
                                {"client": str(client), "service": service.name,
                                 "cluster": fast.name, "error": repr(exc)})
            return DispatchResult(endpoint=None, cluster=None,
                                  background_best=background_best,
                                  waited=waited, deploy_failed=True)
        self._record_outcome(fast, ok=True)
        return DispatchResult(endpoint=endpoint, cluster=fast,
                              background_best=background_best, waited=waited)

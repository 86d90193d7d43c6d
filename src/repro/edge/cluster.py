"""Uniform edge-cluster façade.

The SDN controller's Dispatcher is deliberately independent of the cluster
type (§V: "It does not matter whether the edge cluster is running Docker or
Kubernetes — we use the same service definition for both"). This module
provides that abstraction: a :class:`DeploymentSpec` (cluster-neutral,
produced by the annotation pipeline in :mod:`repro.core.annotate`) and two
:class:`EdgeCluster` implementations mapping the paper's three deployment
phases (fig. 4) onto Docker and Kubernetes:

=========  ============================  =================================
Phase      Docker                        Kubernetes
=========  ============================  =================================
Pull       ``docker pull``               kubelet image pull
Create     create container(s)           create Deployment + Service (0 replicas)
Scale Up   start container(s)            scale Deployment to 1
ScaleDown  stop container(s)             scale Deployment to 0
Remove     remove container(s)           delete Deployment + Service
Delete     delete image                  delete image
=========  ============================  =================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.edge.containerd import Containerd
from repro.edge.docker import DockerEngine
from repro.edge.kubernetes import (
    DEFAULT_SCHEDULER,
    ContainerSpec,
    Deployment,
    KubernetesCluster,
    PodTemplate,
    Service,
)
from repro.edge.services import ServiceBehavior
from repro.netsim.addresses import IPv4

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.host import Host
    from repro.simcore import Process, Simulator

#: controller port-probe poll period ("the controller continuously tests if
#: the respective port is open", §VI)
PROBE_INTERVAL_S = 0.020


class ClusterUnavailable(RuntimeError):
    """The cluster (node / orchestrator API) is down — operations against
    it fail fast instead of hanging. Raised while :attr:`EdgeCluster.up`
    is False (outage injection, maintenance windows)."""


class ClusterStateError(RuntimeError):
    """A lifecycle operation was issued out of order (e.g. scale-up before
    create). Subclasses :class:`RuntimeError` for backwards compatibility."""


@dataclass(frozen=True)
class Endpoint:
    """Where a service instance is reachable (node IP + published port)."""

    ip: IPv4
    port: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


@dataclass(frozen=True)
class SpecContainer:
    """One container of a cluster-neutral deployment spec."""

    name: str
    image: str
    behavior: Optional[ServiceBehavior] = None


@dataclass(frozen=True)
class DeploymentSpec:
    """Cluster-neutral, fully-annotated service deployment description."""

    #: unique worldwide service name (auto-annotated, §V)
    name: str
    containers: Tuple[SpecContainer, ...]
    #: port the service is exposed on / container target port
    port: int = 80
    target_port: int = 80
    protocol: str = "TCP"
    labels: Dict[str, str] = field(default_factory=dict)
    scheduler_name: str = DEFAULT_SCHEDULER
    #: replica count a Scale-Up targets (honoured by Kubernetes; the Docker
    #: backend runs a single instance per "cluster", as in the paper)
    replicas: int = 1

    @property
    def serving_container(self) -> SpecContainer:
        for container in self.containers:
            if container.behavior is not None and container.behavior.port is not None:
                return container
        return self.containers[0]


@dataclass
class InstanceInfo:
    """One service instance as the Dispatcher sees it."""

    cluster: "EdgeCluster"
    endpoint: Endpoint
    ready: bool


class EdgeCluster:
    """Abstract façade; see :class:`DockerCluster` / :class:`KubernetesEdgeCluster`."""

    cluster_type = "abstract"

    def __init__(self, sim: "Simulator", name: str, node: "Host",
                 runtime: Containerd, zone: str = "default"):
        self.sim = sim
        self.name = name
        self.node = node
        self.runtime = runtime
        #: topology zone used by the Global Scheduler's proximity metric
        self.zone = zone
        #: cluster reachability: False during an injected/maintenance outage
        #: (deployment operations raise :class:`ClusterUnavailable`,
        #: readiness reads False so dispatch avoids the cluster)
        self.up = True
        #: outage count (diagnostics)
        self.outages = 0
        #: RTT a controller port-probe pays against this cluster
        self.probe_rtt_s = 0.001
        #: latency of one inventory query (the controller asking the Docker/
        #: Kubernetes API for existing+running instances, fig. 7) — this is
        #: the cost FlowMemory saves on re-misses
        self.inventory_query_s = 0.004
        #: diagnostics (per-phase operation counts)
        self.ops: Dict[str, int] = {"pull": 0, "create": 0, "scale_up": 0,
                                    "scale_down": 0, "remove": 0}

    def _note_op(self, op: str) -> None:
        """Count a lifecycle operation."""
        self.ops[op] += 1

    # ---- images ---------------------------------------------------------

    def has_image(self, image_ref: str) -> bool:
        return self.runtime.has_image(image_ref)

    def has_images(self, spec: DeploymentSpec) -> bool:
        return all(self.runtime.has_image(c.image) for c in spec.containers)

    def pull(self, spec: DeploymentSpec) -> "Process":
        """Phase 1 — pull every image of the spec (sequentially, like the
        runtime does for one pod)."""
        self._note_op("pull")

        def proc():
            for container in spec.containers:
                yield self.runtime.pull(container.image)

        return self.sim.spawn(proc(), name=f"{self.name}:pull:{spec.name}")

    def delete_images(self, spec: DeploymentSpec) -> None:
        for container in spec.containers:
            self.runtime.delete_image(container.image)

    # ---- lifecycle (abstract) -------------------------------------------

    def is_created(self, spec: DeploymentSpec) -> bool:
        raise NotImplementedError

    def create(self, spec: DeploymentSpec) -> "Process":
        raise NotImplementedError

    def scale_up(self, spec: DeploymentSpec) -> "Process":
        raise NotImplementedError

    def scale_down(self, spec: DeploymentSpec) -> "Process":
        raise NotImplementedError

    def remove(self, spec: DeploymentSpec) -> "Process":
        raise NotImplementedError

    def endpoint(self, spec: DeploymentSpec) -> Optional[Endpoint]:
        """Where the instance will be reachable (regardless of readiness)."""
        raise NotImplementedError

    # ---- availability -----------------------------------------------------

    def fail(self) -> None:
        """Take the cluster down (node outage). Idempotent."""
        if self.up:
            self.up = False
            self.outages += 1
            self.sim.trace.emit(self.sim.now, "cluster", "down", {"name": self.name})

    def recover(self) -> None:
        """Bring the cluster back after an outage. Idempotent."""
        if not self.up:
            self.up = True
            self.sim.trace.emit(self.sim.now, "cluster", "up", {"name": self.name})

    def check_available(self) -> None:
        """Raise :class:`ClusterUnavailable` while the cluster is down."""
        if not self.up:
            raise ClusterUnavailable(f"cluster {self.name!r} is down")

    # ---- readiness --------------------------------------------------------

    def port_open(self, endpoint: Endpoint) -> bool:
        return self.node.listening_on(endpoint.port)

    def is_ready(self, spec: DeploymentSpec) -> bool:
        if not self.up:
            return False
        endpoint = self.endpoint(spec)
        return endpoint is not None and self.port_open(endpoint)

    def instances(self, spec: DeploymentSpec) -> List[InstanceInfo]:
        endpoint = self.endpoint(spec)
        if endpoint is None:
            return []
        return [InstanceInfo(cluster=self, endpoint=endpoint,
                             ready=self.up and self.port_open(endpoint))]

    def estimate_cold_start_s(self, spec: DeploymentSpec) -> float:
        """Rough cold-start estimate: orchestrator overhead + app startup +
        pull time for missing layers. Schedulers use it to honour a
        service's ``max_initial_delay_s`` budget."""
        # Orchestrator start overhead (empirical, matches fig. 11 bands).
        total = 0.55 if self.cluster_type == "docker" else 2.6
        serving = spec.serving_container
        if serving.behavior is not None:
            total += serving.behavior.startup_s
        if not self.has_images(spec):
            from repro.edge.registry import ImageNotFound

            missing = 0
            for container in spec.containers:
                ref = self.runtime._ref(container.image)
                try:
                    image = self.runtime.hub.manifest(ref)
                except ImageNotFound:
                    continue  # unpullable: the attempt will fail fast anyway
                registry = self.runtime.hub.resolve(ref)
                for layer in image.layers:
                    # Layers already cached on the node cost nothing.
                    if layer.digest not in self.runtime._layers:
                        total += registry.layer_time(layer.size_bytes)
                        missing += 1
                if missing:
                    total += registry.manifest_time()
        return total

    def wait_ready(self, spec: DeploymentSpec) -> "Process":
        """Port-probe loop: poll every PROBE_INTERVAL_S (paying one probe RTT
        per attempt) until the service port accepts connections. Returns the
        ready endpoint."""

        def proc():
            while True:
                yield self.sim.timeout(self.probe_rtt_s)
                self.check_available()  # outage: probes fail fast
                endpoint = self.endpoint(spec)
                if endpoint is not None and self.port_open(endpoint):
                    return endpoint
                yield self.sim.timeout(PROBE_INTERVAL_S)

        return self.sim.spawn(proc(), name=f"{self.name}:wait-ready:{spec.name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} zone={self.zone}>"


class DockerCluster(EdgeCluster):
    """A "cluster" that is one Docker engine (the paper's lightweight case)."""

    cluster_type = "docker"

    def __init__(self, sim: "Simulator", name: str, engine: DockerEngine,
                 zone: str = "default"):
        super().__init__(sim, name, engine.node, engine.runtime, zone)
        self.engine = engine

    # Docker containers are named "<service>-<container>".

    def _handles(self, spec: DeploymentSpec, include_stopped: bool = True) -> list:
        out = []
        for container in spec.containers:
            handle = self.engine.containers.get(f"{spec.name}-{container.name}")
            if handle is not None and (include_stopped or handle.status == "running"):
                out.append(handle)
        return out

    def is_created(self, spec: DeploymentSpec) -> bool:
        return len(self._handles(spec)) == len(spec.containers)

    def create(self, spec: DeploymentSpec) -> "Process":
        self._note_op("create")

        def proc():
            handles = []
            for container in spec.containers:
                handle = yield self.engine.containers.create(
                    container.image,
                    name=f"{spec.name}-{container.name}",
                    behavior=container.behavior,
                    labels={"edge.service": spec.name, **spec.labels},
                )
                handles.append(handle)
            return handles

        return self.sim.spawn(proc(), name=f"{self.name}:create:{spec.name}")

    def scale_up(self, spec: DeploymentSpec) -> "Process":
        self._note_op("scale_up")

        def proc():
            handles = self._handles(spec)
            if len(handles) != len(spec.containers):
                raise ClusterStateError(f"{spec.name}: not created on {self.name}")
            for handle in handles:
                if handle.status != "running":
                    yield handle.start()
            return self.endpoint(spec)

        return self.sim.spawn(proc(), name=f"{self.name}:scale-up:{spec.name}")

    def scale_down(self, spec: DeploymentSpec) -> "Process":
        self._note_op("scale_down")

        def proc():
            for handle in self._handles(spec):
                if handle.status == "running":
                    yield handle.stop()

        return self.sim.spawn(proc(), name=f"{self.name}:scale-down:{spec.name}")

    def remove(self, spec: DeploymentSpec) -> "Process":
        self._note_op("remove")

        def proc():
            for handle in self._handles(spec):
                yield handle.remove()

        return self.sim.spawn(proc(), name=f"{self.name}:remove:{spec.name}")

    def endpoint(self, spec: DeploymentSpec) -> Optional[Endpoint]:
        serving = spec.serving_container
        handle = self.engine.containers.get(f"{spec.name}-{serving.name}")
        if handle is None or handle.host_port is None:
            return None
        return Endpoint(ip=self.node.ip, port=handle.host_port)


class KubernetesEdgeCluster(EdgeCluster):
    """An edge cluster managed by Kubernetes."""

    cluster_type = "kubernetes"

    def __init__(self, sim: "Simulator", name: str, cluster: KubernetesCluster,
                 node: "Host", runtime: Containerd, zone: str = "default"):
        super().__init__(sim, name, node, runtime, zone)
        self.k8s = cluster
        # Listing Deployments/Pods/Services via the API server costs more
        # than a dockerd list.
        self.inventory_query_s = 0.008

    def _selector(self, spec: DeploymentSpec) -> Dict[str, str]:
        return {"edge.service": spec.name}

    def is_created(self, spec: DeploymentSpec) -> bool:
        return (self.k8s.api.get("Deployment", spec.name) is not None
                and self.k8s.api.get("Service", spec.name) is not None)

    def create(self, spec: DeploymentSpec) -> "Process":
        """Create Deployment (replicas=0, "scale to zero") + Service."""
        self._note_op("create")

        def proc():
            labels = {"edge.service": spec.name, **spec.labels}
            template = PodTemplate(
                labels=labels,
                containers=[ContainerSpec(c.name, c.image, c.behavior)
                            for c in spec.containers],
                scheduler_name=spec.scheduler_name,
            )
            yield self.k8s.create_deployment(
                Deployment(spec.name, template, replicas=0, labels=labels))
            yield self.k8s.create_service(
                Service(spec.name, selector=self._selector(spec),
                        port=spec.port, target_port=spec.target_port,
                        protocol=spec.protocol, labels=labels))

        return self.sim.spawn(proc(), name=f"{self.name}:create:{spec.name}")

    def scale_up(self, spec: DeploymentSpec) -> "Process":
        self._note_op("scale_up")

        def proc():
            yield self.k8s.scale(spec.name, max(1, spec.replicas))
            return self.endpoint(spec)

        return self.sim.spawn(proc(), name=f"{self.name}:scale-up:{spec.name}")

    def scale_down(self, spec: DeploymentSpec) -> "Process":
        self._note_op("scale_down")

        def proc():
            yield self.k8s.scale(spec.name, 0)

        return self.sim.spawn(proc(), name=f"{self.name}:scale-down:{spec.name}")

    def remove(self, spec: DeploymentSpec) -> "Process":
        self._note_op("remove")

        def proc():
            if self.k8s.api.get("Deployment", spec.name) is not None:
                yield self.k8s.delete_deployment(spec.name)
            if self.k8s.api.get("Service", spec.name) is not None:
                yield self.k8s.api.delete("Service", spec.name)

        return self.sim.spawn(proc(), name=f"{self.name}:remove:{spec.name}")

    def endpoint(self, spec: DeploymentSpec) -> Optional[Endpoint]:
        svc = self.k8s.api.get("Service", spec.name)
        if svc is None or svc.node_port is None:
            return None
        return Endpoint(ip=self.node.ip, port=svc.node_port)

"""Calibrated timing models for the container substrate.

Every duration the simulation charges for a runtime operation lives here as
an explicit, documented constant, calibrated so the canonical topology
reproduces the medians the paper reports (fig. 11–16):

* Docker scale-up of a cached web container: **< 1 s** (≈ 0.5–0.6 s);
* Kubernetes scale-up of the same container: **≈ 3 s**;
* Create adds **≈ 100 ms**;
* private-LAN registry pulls **1.5–2 s faster** than Docker Hub;
* warm-instance responses ≈ 1 ms for web services, ResNet ≫.

Nothing downstream hard-codes a result: these are *inputs* (per-operation
costs), and the measured totals emerge from the message/reconcile flows.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ContainerdTiming:
    """Costs of the shared container runtime on the edge gateway server.

    Mohan et al. [23] measured that creation/initialization of network
    namespaces accounts for ~90 % of container cold-start, which is why
    ``netns_setup_s`` dominates ``start``.
    """

    #: `containerd` client call overhead (ctr/api round trip)
    api_call_s: float = 0.010
    #: creating the container object + snapshot (the "Create" phase body)
    create_s: float = 0.080
    #: network namespace creation + veth/bridge wiring (dominates cold start)
    netns_setup_s: float = 0.300
    #: remaining start work: OCI runtime spec, shim, exec of PID 1
    start_exec_s: float = 0.060
    #: unpacking a pulled layer, per MiB (gzip + overlayfs)
    unpack_s_per_mib: float = 0.004
    #: stopping (SIGTERM->exit) and removing
    stop_s: float = 0.050
    remove_s: float = 0.040
    #: netns creation serializes in the kernel; concurrent starts queue
    netns_serialized: bool = True


@dataclass
class DockerTiming:
    """Docker-engine overhead on top of containerd."""

    #: dockerd API call overhead (REST + engine bookkeeping)
    api_call_s: float = 0.020
    #: extra per-container engine work during start (port publish, iptables)
    start_extra_s: float = 0.040


@dataclass
class KubernetesTiming:
    """Control-plane costs of the single-node K8s cluster.

    The ≈ 3 s scale-up the paper measures is the *sum of the reconcile
    chain* (deployment → replicaset → scheduler → kubelet → CNI → status →
    endpoints), not one constant; each hop's watch latency and work time is
    modelled here.
    """

    #: API-server request latency (etcd write + admission)
    api_call_s: float = 0.030
    #: watch-event propagation latency (informer delivery)
    watch_latency_s: float = 0.050
    #: deployment controller sync work
    deployment_sync_s: float = 0.060
    #: replicaset controller sync work
    replicaset_sync_s: float = 0.060
    #: scheduler: queue wait + filter/score cycle
    scheduler_s: float = 0.250
    #: kubelet: pod-sync loop delay before acting on a newly-bound pod
    kubelet_sync_s: float = 0.350
    #: CNI plugin sandbox networking (on top of containerd netns cost)
    cni_setup_s: float = 0.450
    #: pause/sandbox container creation
    sandbox_s: float = 0.200
    #: kubelet -> API status update + endpoints controller -> kube-proxy
    status_propagation_s: float = 0.300
    #: kube-proxy programming iptables/ipvs for a service's endpoints
    proxy_program_s: float = 0.100


DEFAULT_CONTAINERD = ContainerdTiming()
DEFAULT_DOCKER = DockerTiming()
DEFAULT_KUBERNETES = KubernetesTiming()

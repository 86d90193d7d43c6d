"""Failure accounting: one flat counter snapshot across the platform.

The resilience machinery (retries, circuit breakers, cloud fallback — see
docs/faults.md) spreads its bookkeeping over the objects that own it: the
deployment engine counts retries, the dispatcher counts breaker opens and
degraded dispatches, the controller counts released-toward-cloud packet
bursts, the container runtimes count injected crashes. This module flattens
all of that into one dict for experiment drivers and operator tooling.

Everything is reached through the controller. A cluster's runtime is read
with ``getattr``, because a serverless cluster has none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class FailureCounters:
    """Snapshot of the platform's failure/resilience counters."""

    #: dispatches that degraded toward the cloud after a failed deployment
    dispatch_failures: int = 0
    #: deployment attempts that were retried with backoff
    retries: int = 0
    #: bring-ups that exhausted every attempt
    deploy_exhausted: int = 0
    #: circuit-breaker open transitions across all clusters
    breaker_opens: int = 0
    #: dispatches answered by the cloud instead of an edge
    cloud_fallbacks: int = 0
    #: dead endpoints evicted from FlowMemory (+ their switch flows)
    instances_evicted: int = 0
    #: injected registry pull failures observed by container runtimes
    pull_failures: int = 0
    #: containers crashed (injected or runtime-initiated)
    containers_crashed: int = 0
    #: edge-cluster outage events
    cluster_outages: int = 0
    #: control-channel messages dropped switch->controller (outage windows)
    control_msgs_dropped_up: int = 0
    #: control-channel messages dropped controller->switch
    control_msgs_dropped_down: int = 0
    #: controller process crashes (injected or scheduled)
    controller_crashes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "dispatch_failures": self.dispatch_failures,
            "retries": self.retries,
            "deploy_exhausted": self.deploy_exhausted,
            "breaker_opens": self.breaker_opens,
            "cloud_fallbacks": self.cloud_fallbacks,
            "instances_evicted": self.instances_evicted,
            "pull_failures": self.pull_failures,
            "containers_crashed": self.containers_crashed,
            "cluster_outages": self.cluster_outages,
            "control_msgs_dropped_up": self.control_msgs_dropped_up,
            "control_msgs_dropped_down": self.control_msgs_dropped_down,
            "controller_crashes": self.controller_crashes,
        }


def snapshot_failures(controller: Any,
                      clusters: Optional[list] = None) -> FailureCounters:
    """Collect a :class:`FailureCounters` from ``controller`` and the parts
    it reaches. ``clusters`` defaults to the dispatcher's; operator tooling
    passes its own list to include clusters the dispatcher no longer sees."""
    dispatcher = controller.dispatcher
    engine = dispatcher.engine
    stats = controller.stats
    manager = controller.manager
    pull_failures = 0
    crashed = 0
    outages = 0
    for cluster in dispatcher.clusters if clusters is None else clusters:
        runtime = getattr(cluster, "runtime", None)
        pull_failures += getattr(runtime, "pull_failures", 0)
        crashed += getattr(runtime, "containers_crashed", 0)
        outages += cluster.outages
    dropped_up = 0
    dropped_down = 0
    for datapath in manager.datapaths.values():
        dropped_up += datapath.channel.drops_up
        dropped_down += datapath.channel.drops_down
    return FailureCounters(
        dispatch_failures=stats["dispatch_failures"],
        retries=engine.retries,
        deploy_exhausted=engine.failures,
        breaker_opens=dispatcher.breaker_opens,
        cloud_fallbacks=dispatcher.cloud_fallbacks,
        instances_evicted=stats["instances_evicted"],
        pull_failures=pull_failures,
        containers_crashed=crashed,
        cluster_outages=outages,
        control_msgs_dropped_up=dropped_up,
        control_msgs_dropped_down=dropped_down,
        controller_crashes=manager.crashes,
    )

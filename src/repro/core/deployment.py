"""The three-phase deployment engine (fig. 4) with per-phase timing records.

Phases for bringing a service instance up on a cluster:

1. **Pull** — unless cached, fetch the container images;
2. **Create** — Docker: create container(s); K8s: Deployment + Service with
   zero replicas;
3. **Scale Up** — Docker: start container(s); K8s: replicas 0 → 1 — followed
   by the controller's port-probe wait until the service actually answers.

And for retiring one: **Scale Down**, **Remove**, and (rarely) **Delete**
(images). Every run that did work, retried or failed is recorded as a
:class:`DeploymentRecord`, the raw data behind figs. 11–15. A warm reuse —
the instance was ready, which is every dispatch after the first — only
counts in :attr:`DeploymentEngine.warm_reuses`, so the engine keeps nothing
per client.

Concurrent requests for the same (cluster, service) coalesce onto one
in-flight deployment — exactly what the controller needs when a burst of
clients hits a cold service (fig. 10: up to eight deployments per second).

Resilience (none of which the paper's prototype had): every phase runs
under a per-attempt deadline, failed attempts are retried with exponential
backoff (:class:`~repro.core.resilience.RetryPolicy`), and a bring-up that
exhausts its attempts raises a typed :class:`DeploymentError` so the
dispatcher can fall back toward the cloud instead of hanging the client.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.registry import EdgeService
from repro.core.resilience import RetryPolicy
from repro.edge.cluster import EdgeCluster
from repro.simcore.errors import ProcessKilled

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore import Process, Simulator


class DeploymentError(RuntimeError):
    """Base class: bringing a service instance up on a cluster failed."""

    def __init__(self, cluster: str, service: str, message: str):
        super().__init__(message)
        self.cluster = cluster
        self.service = service


class DeploymentPhaseError(DeploymentError):
    """One phase (pull / create / scale_up / wait_ready) raised."""

    def __init__(self, cluster: str, service: str, phase: str,
                 cause: BaseException):
        super().__init__(cluster, service,
                         f"{service} on {cluster}: phase {phase!r} failed: {cause!r}")
        self.phase = phase
        self.cause = cause


class DeploymentTimeout(DeploymentError):
    """One phase overran its per-attempt deadline and was killed."""

    def __init__(self, cluster: str, service: str, phase: str, deadline_s: float):
        super().__init__(cluster, service,
                         f"{service} on {cluster}: phase {phase!r} exceeded "
                         f"its {deadline_s:g}s deadline")
        self.phase = phase
        self.deadline_s = deadline_s


class DeploymentRetriesExhausted(DeploymentError):
    """Every attempt of a bring-up failed; the last error is attached."""

    def __init__(self, cluster: str, service: str, attempts: int,
                 last_error: BaseException):
        super().__init__(cluster, service,
                         f"{service} on {cluster}: {attempts} attempt(s) "
                         f"failed, last: {last_error!r}")
        self.attempts = attempts
        self.last_error = last_error


@dataclass
class DeploymentRecord:
    """Timing of one ensure-available run that deployed, retried or failed
    (phases that actually executed)."""

    service: str
    cluster: str
    cluster_type: str
    started_at: float
    #: per-phase durations; absent key = phase skipped (already satisfied)
    phases: Dict[str, float] = field(default_factory=dict)
    #: wait-until-ready (port probing) duration — fig. 14/15's quantity
    wait_s: float = 0.0
    finished_at: float = 0.0
    cold_start: bool = False
    #: False for failed/interrupted runs — those must not pollute the
    #: fig. 11–15 aggregations (negative ``total_s`` etc.)
    succeeded: bool = False
    #: retries this run needed (0 = first attempt succeeded)
    retries: int = 0
    #: repr of the terminal error for failed runs
    error: Optional[str] = None

    @property
    def total_s(self) -> float:
        return self.finished_at - self.started_at


class DeploymentEngine:
    """Drives the phases of fig. 4 against any :class:`EdgeCluster`."""

    def __init__(self, sim: "Simulator", policy: Optional[RetryPolicy] = None):
        self.sim = sim
        #: deadline/backoff policy applied to every bring-up
        self.policy = policy if policy is not None else RetryPolicy()
        self._inflight: Dict[Tuple[str, str], "Process"] = {}
        #: every completed run that deployed, retried or failed (experiment
        #: drivers read this)
        self.records: List[DeploymentRecord] = []
        #: diagnostics
        self.coalesced = 0
        #: runs that found the instance ready at once (no record)
        self.warm_reuses = 0
        #: failed attempts (each may be retried)
        self.attempt_failures = 0
        #: backoff retries actually taken
        self.retries = 0
        #: bring-ups that exhausted every attempt
        self.failures = 0

    # ------------------------------------------------------------ bring up

    def ensure_available(self, cluster: EdgeCluster, service: EdgeService) -> "Process":
        """Make sure a *ready* instance exists on ``cluster``; returns its
        :class:`Endpoint`. Coalesces concurrent calls per (cluster, service).

        The returned process fails with a :class:`DeploymentError` subclass
        when the bring-up is impossible within the engine's
        :class:`~repro.core.resilience.RetryPolicy` — every coalesced waiter
        observes the same failure."""
        key = (cluster.name, service.name)
        inflight = self._inflight.get(key)
        if inflight is not None and inflight.alive:
            self.coalesced += 1
            return inflight
        process = self.sim.spawn(self._ensure_proc(cluster, service),
                                 name=f"deploy:{cluster.name}:{service.name}")
        self._inflight[key] = process
        return process

    def _phase(self, cluster: EdgeCluster, service: EdgeService,
               phase: str, process: "Process"):
        """Join ``process`` under the policy's per-attempt deadline.

        A deadline overrun kills the phase process and raises
        :class:`DeploymentTimeout`; any other phase exception is wrapped in
        :class:`DeploymentPhaseError`. (Sub-generator: callers ``yield from``.)
        """
        deadline = self.policy.deadline_for(phase)
        if deadline is None:
            try:
                result = yield process
            except ProcessKilled:
                raise
            except BaseException as exc:  # noqa: BLE001 - typed rethrow
                raise DeploymentPhaseError(cluster.name, service.name,
                                           phase, exc) from exc
            return result
        fired = {"timeout": False}

        def watchdog() -> None:
            if process.alive:
                fired["timeout"] = True
                process.kill(f"{phase} deadline exceeded")

        handle = self.sim.schedule(deadline, watchdog)
        try:
            result = yield process
            return result
        except ProcessKilled as exc:
            if fired["timeout"]:
                raise DeploymentTimeout(cluster.name, service.name,
                                        phase, deadline) from exc
            raise  # the ensure process itself was killed
        except BaseException as exc:  # noqa: BLE001 - typed rethrow
            raise DeploymentPhaseError(cluster.name, service.name,
                                       phase, exc) from exc
        finally:
            handle.cancel()

    def _ensure_proc(self, cluster: EdgeCluster, service: EdgeService):
        spec = service.spec
        key = (cluster.name, service.name)
        started_at = self.sim.now
        # Built once the run deploys or fails: a warm reuse leaves no record.
        record: Optional[DeploymentRecord] = None
        attempt = 0
        try:
            while True:
                attempt += 1
                try:
                    cluster.check_available()
                    if cluster.is_ready(spec):
                        endpoint = cluster.endpoint(spec)
                        if record is None:
                            self.warm_reuses += 1
                        else:
                            record.succeeded = True
                        return endpoint

                    if record is None:
                        record = self._new_record(cluster, service, started_at)
                    record.cold_start = True
                    # Phase 1: Pull ----------------------------------------
                    if not cluster.has_images(spec):
                        t0 = self.sim.now
                        yield from self._phase(cluster, service, "pull",
                                               cluster.pull(spec))
                        record.phases["pull"] = self.sim.now - t0
                    # Phase 2: Create --------------------------------------
                    cluster.check_available()
                    if not cluster.is_created(spec):
                        t0 = self.sim.now
                        yield from self._phase(cluster, service, "create",
                                               cluster.create(spec))
                        record.phases["create"] = self.sim.now - t0
                    # Phase 3: Scale Up ------------------------------------
                    cluster.check_available()
                    t0 = self.sim.now
                    yield from self._phase(cluster, service, "scale_up",
                                           cluster.scale_up(spec))
                    record.phases["scale_up"] = self.sim.now - t0
                    # Wait until the port answers (the controller
                    # "continuously tests if the respective port is open").
                    t0 = self.sim.now
                    endpoint = yield from self._phase(cluster, service,
                                                      "wait_ready",
                                                      cluster.wait_ready(spec))
                    record.wait_s = self.sim.now - t0
                    record.succeeded = True
                    self.sim.trace.emit(self.sim.now, "deploy", "ready",
                                        {"service": service.name,
                                         "cluster": cluster.name,
                                         "retries": record.retries,
                                         "total": round(self.sim.now
                                                        - record.started_at, 6)})
                    return endpoint
                except ProcessKilled:
                    raise  # this ensure run was killed from outside
                except Exception as exc:  # noqa: BLE001 - retry or give up
                    if record is None:
                        record = self._new_record(cluster, service, started_at)
                    self.attempt_failures += 1
                    self.sim.trace.emit(self.sim.now, "deploy", "attempt-failed",
                                        {"service": service.name,
                                         "cluster": cluster.name,
                                         "attempt": attempt,
                                         "error": repr(exc)})
                    if attempt >= self.policy.max_attempts:
                        self.failures += 1
                        record.error = repr(exc)
                        if isinstance(exc, DeploymentError) \
                                and self.policy.max_attempts == 1:
                            raise
                        raise DeploymentRetriesExhausted(
                            cluster.name, service.name, attempt, exc) from exc
                    record.retries += 1
                    self.retries += 1
                    yield self.sim.timeout(self.policy.backoff_s(attempt))
        finally:
            if record is not None:
                record.finished_at = self.sim.now
                self.records.append(record)
            self._inflight.pop(key, None)

    @staticmethod
    def _new_record(cluster: EdgeCluster, service: EdgeService,
                    started_at: float) -> DeploymentRecord:
        return DeploymentRecord(service=service.name, cluster=cluster.name,
                                cluster_type=cluster.cluster_type,
                                started_at=started_at)

    # ------------------------------------------------------------ tear down

    def scale_down(self, cluster: EdgeCluster, service: EdgeService) -> "Process":
        def proc():
            t0 = self.sim.now
            yield cluster.scale_down(service.spec)
            self.sim.trace.emit(self.sim.now, "deploy", "scaled-down",
                                {"service": service.name, "cluster": cluster.name,
                                 "took": round(self.sim.now - t0, 6)})

        return self.sim.spawn(proc(), name=f"scale-down:{cluster.name}:{service.name}")

    def remove(self, cluster: EdgeCluster, service: EdgeService,
               delete_images: bool = False) -> "Process":
        def proc():
            if cluster.is_ready(service.spec):
                yield cluster.scale_down(service.spec)
            yield cluster.remove(service.spec)
            if delete_images:
                cluster.delete_images(service.spec)
            self.sim.trace.emit(self.sim.now, "deploy", "removed",
                                {"service": service.name, "cluster": cluster.name})

        return self.sim.spawn(proc(), name=f"remove:{cluster.name}:{service.name}")

    # --------------------------------------------------------------- queries

    def records_for(self, cluster_type: Optional[str] = None,
                    service: Optional[str] = None,
                    cold_only: bool = False,
                    include_failed: bool = False) -> List[DeploymentRecord]:
        """Completed runs that deployed or retried, **successful only** by
        default — failed or interrupted runs carry partial timings that
        would pollute the fig. 11–15 aggregations. Warm reuses are not
        recorded (see :attr:`warm_reuses`)."""
        out = self.records
        if not include_failed:
            out = [r for r in out if r.succeeded]
        if cluster_type is not None:
            out = [r for r in out if r.cluster_type == cluster_type]
        if service is not None:
            out = [r for r in out if r.service == service]
        if cold_only:
            out = [r for r in out if r.cold_start]
        return list(out)

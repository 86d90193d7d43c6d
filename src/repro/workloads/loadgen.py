"""Load generators: reusable request drivers for experiments.

Two standard shapes:

* **open-loop** (:class:`OpenLoopGenerator`): requests arrive on a fixed or
  Poisson schedule regardless of completions — models independent clients
  (the E5 overload experiment, the trace replay);
* **closed-loop** (:class:`ClosedLoopGenerator`): each virtual user issues
  the next request only after the previous one completed (+ think time) —
  models sessions, self-throttling under slowdown.

Both rotate across the testbed's clients and collect
:class:`~repro.workloads.clients.RequestTiming` results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.edge.services import ServiceBehavior
from repro.metrics.stats import StreamingStats, Summary, summarize
from repro.simcore.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.registry import EdgeService
    from repro.experiments.topologies import Testbed
    from repro.workloads.clients import RequestTiming


@dataclass
class LoadResult:
    """What a generator collected.

    Two modes:

    * ``keep_timings=True`` (the default, used by every existing
      experiment): every :class:`RequestTiming` is retained in ``timings``
      and the list-based accessors behave exactly as they always have.
    * ``keep_timings=False`` (the scale path): per-request objects are
      dropped after aggregation — counters plus a
      :class:`~repro.metrics.stats.StreamingStats` over ``time_total`` of
      the successful requests. Memory stays constant at any request count.
    """

    timings: List["RequestTiming"] = field(default_factory=list)
    issued: int = 0
    keep_timings: bool = True
    #: streaming aggregate over ok-request total latencies (streaming mode)
    stream: Optional[StreamingStats] = None
    #: counters maintained in both modes by :meth:`record`
    completed_count: int = 0
    ok_count: int = 0

    def record(self, timing: Optional["RequestTiming"]) -> None:
        """Account one finished request (``None``: the request errored)."""
        if timing is not None:
            self.completed_count += 1
            if timing.ok:
                self.ok_count += 1
                if self.stream is not None:
                    self.stream.add(timing.time_total)
        if self.keep_timings:
            self.timings.append(timing)

    @property
    def completed(self) -> List["RequestTiming"]:
        return [t for t in self.timings if t is not None]

    @property
    def ok(self) -> List["RequestTiming"]:
        return [t for t in self.completed if t.ok]

    @property
    def failed(self) -> int:
        if self.keep_timings:
            return len(self.completed) - len(self.ok)
        return self.completed_count - self.ok_count

    def totals(self) -> List[float]:
        if not self.keep_timings:
            raise ValueError(
                "exact per-request timings were not retained "
                "(keep_timings=False); use .stream / .summary() instead")
        return [t.time_total for t in self.ok]

    def summary(self) -> Summary:
        """Latency summary of the ok requests, exact or streaming."""
        if self.keep_timings:
            return summarize(self.totals())
        if self.stream is None or self.stream.count == 0:
            raise ValueError("no successful requests aggregated")
        return self.stream.summary()


class OpenLoopGenerator:
    """Fixed-rate or Poisson open-loop arrivals against one service."""

    def __init__(self, testbed: "Testbed", service: "EdgeService",
                 behavior: Optional[ServiceBehavior] = None,
                 rate_rps: float = 1.0, poisson: bool = False,
                 seed: int = 0, keep_timings: bool = True):
        if rate_rps <= 0:
            raise ValueError("rate must be positive")
        self.testbed = testbed
        self.service = service
        self.behavior = behavior
        self.rate_rps = rate_rps
        self.poisson = poisson
        self._rng = RandomStreams(seed).stream("loadgen.open")
        self.result = LoadResult(
            keep_timings=keep_timings,
            stream=None if keep_timings else StreamingStats())

    def start(self, duration_s: float) -> LoadResult:
        """Schedule all arrivals for ``duration_s`` (call, then run the sim)."""
        sim = self.testbed.sim
        t = 0.0
        index = 0
        while t < duration_s:
            sim.schedule(t, self._issue, index)
            index += 1
            if self.poisson:
                t += float(self._rng.exponential(1.0 / self.rate_rps))
            else:
                t += 1.0 / self.rate_rps
        return self.result

    def _issue(self, index: int) -> None:
        client = self.testbed.client(index % len(self.testbed.timed_clients))
        if self.behavior is not None:
            process = client.fetch_service(self.service.service_id.addr,
                                           self.service.service_id.port,
                                           self.behavior)
        else:
            process = client.fetch(self.service.service_id.addr,
                                   self.service.service_id.port)
        self.result.issued += 1
        process._wait_subscribe(lambda p: self._done(p))

    def _done(self, process) -> None:
        try:
            self.result.record(process.result)
        except Exception:  # noqa: BLE001 - failed request process
            self.result.record(None)


class ClosedLoopGenerator:
    """N virtual users, each looping request → think time → request."""

    def __init__(self, testbed: "Testbed", service: "EdgeService",
                 behavior: Optional[ServiceBehavior] = None,
                 users: int = 4, think_time_s: float = 1.0,
                 keep_timings: bool = True):
        if users <= 0:
            raise ValueError("need at least one user")
        self.testbed = testbed
        self.service = service
        self.behavior = behavior
        self.users = users
        self.think_time_s = think_time_s
        self.result = LoadResult(
            keep_timings=keep_timings,
            stream=None if keep_timings else StreamingStats())

    def start(self, duration_s: float) -> LoadResult:
        sim = self.testbed.sim
        deadline = sim.now + duration_s
        for user in range(self.users):
            sim.spawn(self._user_loop(user, deadline), name=f"user-{user}")
        return self.result

    def _user_loop(self, user: int, deadline: float):
        sim = self.testbed.sim
        client = self.testbed.client(user % len(self.testbed.timed_clients))
        while sim.now < deadline:
            if self.behavior is not None:
                process = client.fetch_service(self.service.service_id.addr,
                                               self.service.service_id.port,
                                               self.behavior)
            else:
                process = client.fetch(self.service.service_id.addr,
                                       self.service.service_id.port)
            self.result.issued += 1
            try:
                timing = yield process
                self.result.record(timing)
            except Exception:  # noqa: BLE001
                self.result.record(None)
            yield sim.timeout(self.think_time_s)

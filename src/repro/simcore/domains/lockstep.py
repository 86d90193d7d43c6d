"""Conservative-lockstep coordination of per-ingress simulation domains.

The classic conservative parallel-DES scheme, specialised to this
substrate: every domain runs its own :class:`~repro.simcore.Simulator`
and the coordinator advances all of them in *barrier epochs* of exactly
one lookahead ``L`` (the minimum cross-domain link latency, from the
:class:`~repro.simcore.domains.partition.DomainPartition`). A frame
captured by a :class:`~repro.simcore.domains.gateway.DomainGateway`
during epoch ``k`` (simulated times ``(t0+kL, t0+(k+1)L]``) has arrival
time ``capture + L > t0+(k+1)L``, i.e. strictly after the next barrier —
so exchanging envelopes only at barriers can never deliver a frame into
a domain's past. :meth:`DomainGateway.inject` still checks, and raises
:class:`~repro.simcore.domains.gateway.CausalityError` if the math is
ever violated.

Determinism is by construction, not by luck:

* envelopes exchanged at a barrier are merged in the total order
  ``(arrival_at, src_domain, seq)`` before being routed, so injection
  order per domain is independent of worker count/completion order;
* per-domain :class:`~repro.metrics.perf.PerfCounters` are measured as
  snapshot deltas around each domain's own work, and merged — like
  traces and results — in domain-id order.

The outcome of a run is therefore **byte-identical** across
``processes=1`` (serial, in-process) and ``processes=N`` (persistent
worker processes over pipes).
"""

from __future__ import annotations

import heapq
import multiprocessing
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Protocol, Tuple

from repro.metrics import perf
from repro.metrics.perf import PerfCounters
from repro.simcore.domains.envelope import (
    Envelope,
    decode_envelopes,
    encode_envelopes,
    envelope_order,
)
from repro.simcore.domains.partition import DomainPartition, DomainSpec
from repro.simcore.trace import TraceRecord

__all__ = ["DomainOutcome", "DomainRuntime", "DomainWorkerError",
           "LockstepCoordinator", "LockstepOutcome", "LockstepProtocolError",
           "LockstepStallError", "ProcessExecutor", "SerialExecutor"]


class LockstepProtocolError(RuntimeError):
    """The partition/coordinator contract was violated (misrouted
    envelope, domain clock past ``t0`` after build, ...)."""


class LockstepStallError(RuntimeError):
    """The epoch loop hit its guard with domains still not done."""


class DomainWorkerError(RuntimeError):
    """A domain worker process failed; carries the worker traceback."""


@dataclass
class DomainOutcome:
    """Everything one domain reports back after a lockstep run."""

    domain_id: int
    name: str
    #: plain-data result from the model's ``finalize()``
    result: Dict[str, Any]
    now: float
    events_executed: int
    perf: PerfCounters
    trace_records: List[TraceRecord] = field(default_factory=list)
    envelopes_in: int = 0
    envelopes_out: int = 0


@dataclass
class LockstepOutcome:
    """The deterministic merge of a whole lockstep run."""

    outcomes: List[DomainOutcome]
    epochs: int
    envelopes_exchanged: int
    lookahead_s: float

    @property
    def n_domains(self) -> int:
        return len(self.outcomes)

    @property
    def total_events(self) -> int:
        return sum(outcome.events_executed for outcome in self.outcomes)

    @property
    def total_perf(self) -> PerfCounters:
        total = PerfCounters()
        for outcome in self.outcomes:  # domain-id order
            total = total + outcome.perf
        return total

    def merged_trace(self) -> Iterator[Tuple[float, int, int, TraceRecord]]:
        """All trace records in the canonical global order
        ``(time, domain_id, record_index)``."""
        def stream(outcome: DomainOutcome) -> Iterator[Tuple[float, int, int, TraceRecord]]:
            # A real function binds `outcome` per stream (a genexp in the
            # list comprehension would close over the loop variable and
            # label every record with the last domain's id).
            return ((record.time, outcome.domain_id, index, record)
                    for index, record in enumerate(outcome.trace_records))

        return heapq.merge(*(stream(outcome) for outcome in self.outcomes),
                           key=lambda item: item[:3])

    def merged_trace_dump(self) -> str:
        """Rendered merged trace, each line prefixed with its domain."""
        return "\n".join(f"d{domain_id} {record}"
                         for _, domain_id, _, record in self.merged_trace())


class DomainRuntime:
    """One built domain plus the state that must be sharded around it."""

    def __init__(self, spec: DomainSpec, n_domains: int) -> None:
        self.spec = spec
        before = perf.snapshot()
        self.model = spec.build(n_domains)
        self.perf = perf.delta(before)
        self.envelopes_in = 0
        self.envelopes_out = 0

    @property
    def now(self) -> float:
        return self.model.sim.now

    def advance(self, epoch_end: float,
                inbound: List[Envelope]) -> Tuple[List[Envelope], bool]:
        """Inject this epoch's inbound envelopes, run to the barrier,
        drain the captured outbound; returns ``(outbound, done)``."""
        gateway = self.model.gateway
        if inbound and gateway is None:
            raise LockstepProtocolError(
                f"domain {self.spec.domain_id} has no gateway but received "
                f"{len(inbound)} envelope(s)")
        before = perf.snapshot()
        try:
            if gateway is not None:
                for envelope in inbound:
                    gateway.inject(envelope)
            self.model.sim.run(until=epoch_end)
        finally:
            self.perf = self.perf + perf.delta(before)
        outbound = gateway.drain() if gateway is not None else []
        self.envelopes_in += len(inbound)
        self.envelopes_out += len(outbound)
        return outbound, self.model.done()

    def finalize(self) -> DomainOutcome:
        sim = self.model.sim
        return DomainOutcome(
            domain_id=self.spec.domain_id, name=self.spec.name,
            result=self.model.finalize(), now=sim.now,
            events_executed=sim.events_executed, perf=self.perf,
            trace_records=list(sim.trace.records),
            envelopes_in=self.envelopes_in, envelopes_out=self.envelopes_out)


class DomainExecutor(Protocol):
    """Where the domains actually run (in-process or worker processes)."""

    def build(self) -> Dict[int, float]: ...

    def advance(self, epoch_end: float, inbound: List[List[Envelope]],
                ) -> Tuple[List[List[Envelope]], List[bool]]: ...

    def finalize(self) -> List[DomainOutcome]: ...

    def close(self) -> None: ...


class SerialExecutor:
    """All domains in this process, advanced in domain-id order."""

    def __init__(self, partition: DomainPartition) -> None:
        self.partition = partition
        self._runtimes: List[DomainRuntime] = []

    def build(self) -> Dict[int, float]:
        self._runtimes = [DomainRuntime(spec, self.partition.n_domains)
                          for spec in self.partition.specs]
        return {runtime.spec.domain_id: runtime.now
                for runtime in self._runtimes}

    def advance(self, epoch_end: float, inbound: List[List[Envelope]],
                ) -> Tuple[List[List[Envelope]], List[bool]]:
        outbound: List[List[Envelope]] = []
        done: List[bool] = []
        for runtime in self._runtimes:
            out, finished = runtime.advance(
                epoch_end, inbound[runtime.spec.domain_id])
            outbound.append(out)
            done.append(finished)
        return outbound, done

    def finalize(self) -> List[DomainOutcome]:
        return [runtime.finalize() for runtime in self._runtimes]

    def close(self) -> None:
        self._runtimes = []


# ---------------------------------------------------------------------------
# Process executor: persistent, stateful domain workers over pipes
# ---------------------------------------------------------------------------


def _start_method() -> str:
    """Fork where the platform has it (cheap, inherits the warm import
    state), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _domain_worker_main(conn: Any, specs: Tuple[DomainSpec, ...],
                        n_domains: int) -> None:
    """Worker loop: build the assigned domains once, then serve
    advance/finalize requests until told to close.

    Domain workers are *stateful*: the built domains live here across
    every epoch of the run.
    """
    try:
        runtimes = [DomainRuntime(spec, n_domains) for spec in specs]
        conn.send(("ready", {runtime.spec.domain_id: runtime.now
                             for runtime in runtimes}))
        while True:
            message = conn.recv()
            if message[0] == "advance":
                _, epoch_end, blobs = message
                reply: Dict[int, Tuple[bytes, bool]] = {}
                for runtime in runtimes:
                    domain_id = runtime.spec.domain_id
                    inbound = decode_envelopes(blobs[domain_id])
                    outbound, finished = runtime.advance(epoch_end, inbound)
                    reply[domain_id] = (encode_envelopes(outbound), finished)
                conn.send(("advanced", reply))
            elif message[0] == "finalize":
                conn.send(("finalized",
                           [runtime.finalize() for runtime in runtimes]))
            elif message[0] == "close":
                return
            else:  # pragma: no cover - parent never sends anything else
                raise LockstepProtocolError(f"unknown message {message[0]!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            pass
    finally:
        conn.close()


class ProcessExecutor:
    """Domains sharded round-robin over persistent worker processes."""

    def __init__(self, partition: DomainPartition, processes: int) -> None:
        self.partition = partition
        self.processes = max(1, min(int(processes), partition.n_domains))
        #: (process, parent pipe end, owned domain ids) per worker
        self._workers: List[Tuple[Any, Any, List[int]]] = []

    def _recv(self, conn: Any, expect: str) -> Any:
        try:
            message = conn.recv()
        except EOFError as exc:
            raise DomainWorkerError("domain worker died mid-run") from exc
        if message[0] == "error":
            raise DomainWorkerError(f"domain worker failed:\n{message[1]}")
        if message[0] != expect:  # pragma: no cover - defensive
            raise LockstepProtocolError(
                f"expected {expect!r} from worker, got {message[0]!r}")
        return message[1]

    def build(self) -> Dict[int, float]:
        context = multiprocessing.get_context(_start_method())
        assigned: List[List[DomainSpec]] = [[] for _ in range(self.processes)]
        for spec in self.partition.specs:
            assigned[spec.domain_id % self.processes].append(spec)
        for specs in assigned:
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_domain_worker_main,
                args=(child_conn, tuple(specs), self.partition.n_domains),
                daemon=True)
            process.start()
            child_conn.close()
            self._workers.append(
                (process, parent_conn, [spec.domain_id for spec in specs]))
        nows: Dict[int, float] = {}
        for _, conn, _ in self._workers:
            nows.update(self._recv(conn, "ready"))
        return nows

    def advance(self, epoch_end: float, inbound: List[List[Envelope]],
                ) -> Tuple[List[List[Envelope]], List[bool]]:
        # Send every worker its slice first, then collect — workers run
        # their epochs concurrently.
        for _, conn, domain_ids in self._workers:
            conn.send(("advance", epoch_end,
                       {domain_id: encode_envelopes(inbound[domain_id])
                        for domain_id in domain_ids}))
        outbound: List[List[Envelope]] = [[] for _ in self.partition.specs]
        done: List[bool] = [False] * self.partition.n_domains
        for _, conn, _ in self._workers:
            for domain_id, (blob, finished) in self._recv(conn, "advanced").items():
                outbound[domain_id] = decode_envelopes(blob)
                done[domain_id] = finished
        return outbound, done

    def finalize(self) -> List[DomainOutcome]:
        for _, conn, _ in self._workers:
            conn.send(("finalize",))
        outcomes: List[DomainOutcome] = []
        for _, conn, _ in self._workers:
            outcomes.extend(self._recv(conn, "finalized"))
        outcomes.sort(key=lambda outcome: outcome.domain_id)
        # The workers' hot-path counters are invisible to the parent;
        # fold them into the parent's process-global counters so a run
        # reports the same totals no matter where domains executed.
        for outcome in outcomes:
            _fold_into_global_perf(outcome.perf)
        return outcomes

    def close(self) -> None:
        for process, conn, _ in self._workers:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            conn.close()
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=10)
        self._workers = []


def _fold_into_global_perf(counters: PerfCounters) -> None:
    perf.PERF.events_executed += counters.events_executed
    perf.PERF.flow_lookups += counters.flow_lookups
    perf.PERF.flow_hits += counters.flow_hits


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class LockstepCoordinator:
    """Drives a partition through barrier epochs to completion.

    ``processes=1`` uses the :class:`SerialExecutor`; ``processes>1``
    fans the domains over that many persistent workers. Either way the
    :class:`LockstepOutcome` is byte-identical.
    """

    #: generous stall guard: epochs are one lookahead long, so even slow
    #: scenarios finish in thousands of epochs, not millions
    def __init__(self, partition: DomainPartition, processes: int = 1,
                 max_epochs: int = 1_000_000) -> None:
        self.partition = partition
        self.processes = max(1, int(processes))
        self.max_epochs = max_epochs

    def _executor(self) -> DomainExecutor:
        if self.processes <= 1 or self.partition.n_domains <= 1:
            return SerialExecutor(self.partition)
        return ProcessExecutor(self.partition, self.processes)

    def run(self) -> LockstepOutcome:
        partition = self.partition
        executor = self._executor()
        try:
            build_nows = executor.build()
            for domain_id in range(partition.n_domains):
                now = build_nows[domain_id]
                if now > partition.t0 + 1e-12:
                    raise LockstepProtocolError(
                        f"domain {domain_id} built to t={now:.9f}, past the "
                        f"partition's aligned start t0={partition.t0:.9f}")
            pending: List[List[Envelope]] = [[] for _ in partition.specs]
            epoch = 0
            exchanged = 0
            while True:
                if epoch >= self.max_epochs:
                    raise LockstepStallError(
                        f"domains still running after {epoch} epochs "
                        f"(lookahead {partition.lookahead_s}s)")
                epoch_end = partition.t0 + partition.lookahead_s * (epoch + 1)
                outbound, done = executor.advance(epoch_end, pending)
                epoch += 1
                merged = sorted(
                    (envelope for per_domain in outbound for envelope in per_domain),
                    key=envelope_order)
                exchanged += len(merged)
                pending = [[] for _ in partition.specs]
                for envelope in merged:
                    if not 0 <= envelope.dst_domain < partition.n_domains:
                        raise LockstepProtocolError(
                            f"envelope routed to unknown domain "
                            f"{envelope.dst_domain} (have {partition.n_domains})")
                    pending[envelope.dst_domain].append(envelope)
                if all(done) and not merged:
                    break
            outcomes = executor.finalize()
        finally:
            executor.close()
        return LockstepOutcome(outcomes=outcomes, epochs=epoch,
                               envelopes_exchanged=exchanged,
                               lookahead_s=partition.lookahead_s)

"""Per-ingress simulation domains with conservative lockstep.

This package partitions one scenario into independently seeded
simulation domains — each with its own event loop, switch, controller
slice (FlowMemory, dispatcher load counters, registry view) — and
coordinates them in barrier epochs sized by the cross-domain link
latency. See docs/sharding.md for the partitioning model, the
lookahead/lockstep rules and the determinism contract.

Layering note: this lives under :mod:`repro.simcore` because lockstep is
a kernel-level concern, but it is a *leaf* subpackage — importing
``repro.simcore`` does not import it (that would cycle through
:mod:`repro.netsim`, which imports simcore).

:func:`new_simulator` is the domain-aware event-loop factory experiment
drivers must use instead of constructing :class:`Simulator` directly
(linted by rule REP008): loops created through it while a domain is
being built are registered with that domain, so a driver-side helper
loop can never silently escape domain accounting.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.simcore.domains.envelope import (
    Envelope,
    EnvelopeCodecError,
    decode_envelopes,
    encode_envelopes,
    envelope_order,
)
from repro.simcore.domains.gateway import CausalityError, DomainGateway
from repro.simcore.domains.lockstep import (
    DomainOutcome,
    DomainRuntime,
    DomainWorkerError,
    LockstepCoordinator,
    LockstepOutcome,
    LockstepProtocolError,
    LockstepStallError,
    ProcessExecutor,
    SerialExecutor,
)
from repro.simcore.domains.partition import (
    DomainModel,
    DomainPartition,
    DomainSpec,
    PartitionError,
    derive_domain_seed,
)
from repro.simcore.loop import Simulator
from repro.simcore.trace import TraceLog

__all__ = [
    "CausalityError", "DomainGateway", "DomainModel", "DomainOutcome",
    "DomainPartition", "DomainRuntime", "DomainSpec", "DomainWorkerError",
    "Envelope", "EnvelopeCodecError", "LockstepCoordinator",
    "LockstepOutcome", "LockstepProtocolError", "LockstepStallError",
    "PartitionError", "ProcessExecutor", "SerialExecutor",
    "active_domain_workers", "created_simulators", "decode_envelopes",
    "derive_domain_seed", "domain_workers", "encode_envelopes",
    "envelope_order", "new_simulator",
]


# ---------------------------------------------------------------------------
# Domain-aware Simulator factory (REP008's sanctioned construction path)
# ---------------------------------------------------------------------------

#: loops created by :func:`new_simulator` since the last collection —
#: a building DomainRuntime drains this to attribute helper loops
_CREATED_LOOPS: List[Simulator] = []


def new_simulator(trace: Optional[TraceLog] = None) -> Simulator:
    """Create an event loop through the domain-aware path.

    Experiment drivers use this (or a testbed builder, which owns its
    loop) instead of ``Simulator(...)`` so every loop a scenario creates
    is visible to the domain partitioner/accounting — rule REP008 flags
    direct construction inside :mod:`repro.experiments`.
    """
    sim = Simulator(trace=trace)
    _CREATED_LOOPS.append(sim)
    return sim


def created_simulators() -> List[Simulator]:
    """Drain and return the loops created since the last call."""
    global _CREATED_LOOPS
    created, _CREATED_LOOPS = _CREATED_LOOPS, []
    return created


# ---------------------------------------------------------------------------
# --domains N plumbing: a process-wide worker count set for a block
# ---------------------------------------------------------------------------

#: how many domain worker processes lockstep scenarios should use;
#: 1 means serial in-process execution (the byte-identical reference)
_ACTIVE_WORKERS: int = 1


def active_domain_workers() -> int:
    return _ACTIVE_WORKERS


@contextmanager
def domain_workers(processes: int) -> Iterator[int]:
    """Route every lockstep scenario inside the block over ``processes``
    domain workers (the runner enters this for ``--domains N``)."""
    global _ACTIVE_WORKERS
    previous = _ACTIVE_WORKERS
    _ACTIVE_WORKERS = max(1, int(processes))
    try:
        yield _ACTIVE_WORKERS
    finally:
        _ACTIVE_WORKERS = previous

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
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

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

__all__ = [
    "CausalityError", "DomainGateway", "DomainModel", "DomainOutcome",
    "DomainPartition", "DomainRuntime", "DomainSpec", "DomainWorkerError",
    "Envelope", "EnvelopeCodecError", "LockstepCoordinator",
    "LockstepOutcome", "LockstepProtocolError", "LockstepStallError",
    "PartitionError", "ProcessExecutor", "SerialExecutor",
    "active_domain_workers", "decode_envelopes",
    "derive_domain_seed", "domain_workers", "encode_envelopes",
    "envelope_order",
]


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

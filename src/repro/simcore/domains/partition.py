"""Partitioning a simulation into per-ingress domains.

A :class:`DomainPartition` is the *logical* decomposition of a scenario:
``n_domains`` independently seeded :class:`DomainSpec`\\ s plus the
conservative lookahead (the minimum cross-domain link latency) and the
aligned start time ``t0`` every domain must have reached by the end of
its build. The partition is fixed by the scenario/topology — ``--domains
N`` only chooses the *execution vehicle* (serial in-process vs. N worker
processes), which is why output is byte-identical across N.

Builders are top-level callables taking ``(domain_id, n_domains, seed,
**kwargs)`` and returning a :class:`DomainModel`; keeping them picklable
by reference lets the process executor rebuild each domain inside its
worker.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Protocol, Tuple

from repro.simcore.loop import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.domains.gateway import DomainGateway

__all__ = ["DomainModel", "DomainPartition", "DomainSpec",
           "PartitionError", "derive_domain_seed"]


class PartitionError(ValueError):
    """A :class:`DomainPartition` failed structural validation."""


class DomainModel(Protocol):
    """What a domain builder must return.

    ``sim`` is the domain's own event loop; ``gateway`` is its
    cross-domain edge (``None`` for a fully isolated domain). ``done()``
    is the domain's local completion predicate — the coordinator stops
    once every domain is done *and* no envelopes are in flight.
    ``finalize()`` returns plain picklable result data.
    """

    @property
    def sim(self) -> Simulator: ...

    @property
    def gateway(self) -> "Optional[DomainGateway]": ...

    def done(self) -> bool: ...

    def finalize(self) -> Dict[str, Any]: ...


def derive_domain_seed(root_seed: int, domain_id: int) -> int:
    """Stable per-domain 64-bit seed (same BLAKE2b scheme as
    :func:`repro.simcore.rng._digest_seed`, under a ``domain:`` label)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(root_seed).encode("utf-8"))
    h.update(b"\x00domain:")
    h.update(str(domain_id).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class DomainSpec:
    """One domain: identity, derived seed, and how to build it."""

    domain_id: int
    name: str
    builder: Callable[..., DomainModel]
    seed: int
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def build(self, n_domains: int) -> DomainModel:
        return self.builder(domain_id=self.domain_id, n_domains=n_domains,
                            seed=self.seed, **dict(self.kwargs))


@dataclass(frozen=True)
class DomainPartition:
    """The logical decomposition one scenario runs under."""

    specs: Tuple[DomainSpec, ...]
    #: conservative lookahead == barrier epoch length (seconds); must not
    #: exceed the smallest cross-domain link latency
    lookahead_s: float
    #: aligned lockstep start time — every domain's build must leave its
    #: clock at or before ``t0`` and must not capture envelopes before it
    t0: float = 0.0

    def __post_init__(self) -> None:
        if not self.specs:
            raise PartitionError("a partition needs at least one domain")
        ids = [spec.domain_id for spec in self.specs]
        if ids != list(range(len(self.specs))):
            raise PartitionError(
                f"domain ids must be contiguous from 0 in spec order, got {ids}")
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise PartitionError(f"duplicate domain names in {names}")
        if not self.lookahead_s > 0.0:
            raise PartitionError(
                f"lookahead must be positive, got {self.lookahead_s!r}")

    @property
    def n_domains(self) -> int:
        return len(self.specs)

    @classmethod
    def per_ingress(cls, builder: Callable[..., DomainModel], n_domains: int,
                    root_seed: int, lookahead_s: float, t0: float = 0.0,
                    name_prefix: str = "ingress",
                    common_kwargs: Optional[Mapping[str, Any]] = None,
                    ) -> "DomainPartition":
        """The canonical partition: one domain per ingress switch, all
        built by the same builder with per-domain derived seeds."""
        kwargs = dict(common_kwargs or {})
        specs = tuple(
            DomainSpec(domain_id=domain_id,
                       name=f"{name_prefix}-{domain_id}",
                       builder=builder,
                       seed=derive_domain_seed(root_seed, domain_id),
                       kwargs=kwargs)
            for domain_id in range(n_domains))
        return cls(specs=specs, lookahead_s=lookahead_s, t0=t0)

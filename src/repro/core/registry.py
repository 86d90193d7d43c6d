"""The mobile-edge platform's service registry (§II).

Services are registered with the platform by their cloud address (IP +
port); the network then intercepts any request from a client to a registered
service. Registration runs the annotation pipeline once and stores the
resulting cluster-neutral spec.

At web scale the registered address space is cloud-shaped — millions of
perceived-cloud addresses, whole provider prefixes — so the address-space
index is a :class:`~repro.core.trie.PrefixTrie` (longest-prefix-match,
O(address bits) per decision) rather than a flat set:

* exact identity lookups (``lookup``) stay O(1) on the ServiceID dict — the
  hot packet-in decision for host-registered services never walks the trie;
* ``is_registered_address`` / ``covering_prefixes`` / ``lookup_prefix``
  answer from the trie, which also admits *subnet-registered* services
  (``prefix_len < 32``): one registration covers every address of a cloud
  prefix, the LPM winner takes precedence.

Churn contract: :attr:`ServiceRegistry.generation` bumps on **every**
register/deregister (the churn experiment reports it). Nothing memoizes
against it: every packet-in decision reads the live registry — see
docs/registry.md.
:meth:`ServiceRegistry.generation_of` refines the global counter into a
*per-key* revalidation token, so a memo entry for one service identity
would survive churn on every other one (docs/performance.md,
"Measured and dropped"). Its one consumer, the controller's service memo, was
deleted; the performance ledger still reports the token, so it stays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.annotate import AnnotatedService, AnnotationConfig, annotate_service, minimal_yaml
from repro.core.serviceid import ServiceID
from repro.core.trie import PrefixTrie, prefix_mask
from repro.edge.cluster import DeploymentSpec
from repro.netsim.addresses import IPv4

#: key of a service within one trie node's per-address map
_PortKey = Tuple[int, str]

#: the tuple a :class:`ServiceID` is — the dicts below are written with
#: ServiceIDs (validated) and read with this plain tuple (nothing constructed)
_IdentityTuple = Tuple[IPv4, int, str]

#: per-key revalidation token (see :meth:`ServiceRegistry.generation_of`):
#: the exact identity's stamp plus the covering-prefix fingerprint
RegistryToken = Tuple[int, Tuple[Tuple[int, int, int], ...]]

#: bound on the per-identity token memo inside :meth:`generation_of` —
#: large enough that a revalidating caller's traffic never overflows
#: it in practice, small enough to cap worst-case growth from probing
#: arbitrary (unregistered) destinations
_TOKEN_CACHE_CAPACITY = 65_536


@dataclass
class EdgeService:
    """A registered edge service: identity + annotated deployment spec."""

    service_id: ServiceID
    annotated: AnnotatedService
    #: latency budget for the *initial* request; when a cold deployment is
    #: predicted to exceed it and an alternative instance exists, the
    #: scheduler picks On-Demand Deployment *without* waiting (§IV-A2).
    max_initial_delay_s: Optional[float] = None
    #: address-space width of the registration: 32 for a host service, less
    #: for a subnet-registered (cloud-prefix) service whose single identity
    #: covers every address in the prefix
    prefix_len: int = 32

    @property
    def spec(self) -> DeploymentSpec:
        return self.annotated.spec

    @property
    def name(self) -> str:
        return self.annotated.unique_name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EdgeService {self.service_id} -> {self.name}>"


class ServiceRegistry:
    """ServiceID -> EdgeService lookup used by the controller's fast path."""

    def __init__(self, annotation_config: Optional[AnnotationConfig] = None):
        self.annotation_config = annotation_config or AnnotationConfig()
        self._services: Dict[_IdentityTuple, EdgeService] = {}
        #: address-space index: prefix -> {(port, protocol) -> service};
        #: host registrations live at /32, subnet registrations wider
        self._trie: PrefixTrie[Dict[_PortKey, EdgeService]] = PrefixTrie()
        #: bumped on every register/deregister; memoized lookup results
        #: are valid only while it is unchanged
        self.generation = 0
        #: per-identity stamps — the global generation's value at each exact
        #: ServiceID's last register/deregister; feeds :meth:`generation_of`
        self._id_stamps: Dict[_IdentityTuple, int] = {}
        #: generation-gated memo over :meth:`generation_of`: a token is a
        #: pure function of registry state and the global counter moves on
        #: every mutation, so a cached token is valid exactly while the
        #: generation it was computed under is still current. A memo entry
        #: that fails revalidation asks for the same identity's token twice
        #: (the failed check, then the store of the recomputed answer); this
        #: keeps that to one trie walk.
        #: Keyed on the same identity tuple as ``_id_stamps``, so a miss
        #: builds one key for both.
        self._token_cache: Dict[_IdentityTuple, Tuple[int, RegistryToken]] = {}

    def register(
        self,
        service_id: ServiceID,
        yaml_text: Optional[str] = None,
        image: Optional[str] = None,
        container_port: Optional[int] = None,
        max_initial_delay_s: Optional[float] = None,
        prefix_len: int = 32,
    ) -> EdgeService:
        """Register a service from YAML (or from just an image name)."""
        if yaml_text is None:
            if image is None:
                raise ValueError("register needs yaml_text or an image")
            yaml_text = minimal_yaml(image, container_port)
        annotated = annotate_service(yaml_text, service_id, self.annotation_config)
        service = EdgeService(service_id=service_id, annotated=annotated,
                              max_initial_delay_s=max_initial_delay_s,
                              prefix_len=prefix_len)
        return self.register_service(service)

    def register_service(self, service: EdgeService) -> EdgeService:
        """Register an already-annotated service (bulk/synthetic path: the
        churn workloads and benchmarks skip the per-service YAML pipeline)."""
        service_id = service.service_id
        if service_id in self._services:
            raise ValueError(f"service {service_id} already registered")
        network = self._network_of(service_id.addr, service.prefix_len)
        ports = self._trie.get(network, service.prefix_len)
        key = (service_id.port, service_id.protocol)
        if ports is not None and key in ports:
            raise ValueError(
                f"{service_id.protocol}:{service_id.port} already registered "
                f"on {IPv4(network)}/{service.prefix_len}")
        self._services[service_id] = service
        if ports is None:
            self._trie.insert(network, service.prefix_len, {key: service})
        else:
            ports[key] = service
            # In-place port-map mutation bypasses the trie's insert path, so
            # restamp the prefix explicitly (per-key revalidation contract).
            self._trie.touch(network, service.prefix_len)
        self.generation += 1
        self._id_stamps[service_id] = self.generation
        return service

    def deregister(self, service_id: ServiceID,
                   prefix_len: Optional[int] = None) -> Optional[EdgeService]:
        service = self._services.get(service_id)
        if service is None:
            return None
        if prefix_len is not None and prefix_len != service.prefix_len:
            return None
        del self._services[service_id]
        network = self._network_of(service_id.addr, service.prefix_len)
        ports = self._trie.get(network, service.prefix_len)
        if ports is not None:
            ports.pop((service_id.port, service_id.protocol), None)
            if not ports:
                self._trie.remove(network, service.prefix_len)
            else:
                self._trie.touch(network, service.prefix_len)
        self.generation += 1
        self._id_stamps[service_id] = self.generation
        return service

    # ------------------------------------------------------------- lookups

    def lookup(self, addr: IPv4, port: int, protocol: str = "TCP") -> Optional[EdgeService]:
        """Exact-identity lookup (host-registered services): O(1).

        Like every read below it probes with the plain tuple a
        :class:`ServiceID` is, so an identity no ServiceID can name (port 0,
        an unknown protocol) is simply not registered."""
        return self._services.get((addr, port, protocol))

    def lookup_prefix(self, addr: IPv4, port: int,
                      protocol: str = "TCP") -> Optional[EdgeService]:
        """The packet-in decision: exact host registration first (O(1)),
        else the longest registered prefix covering ``addr`` that serves
        ``(port, protocol)``."""
        exact = self._services.get((addr, port, protocol))
        if exact is not None:
            return exact
        if not self._trie:
            return None
        key = (port, protocol)
        # Longest match wins: walk the covering chain most-specific first.
        for _, _, ports in reversed(self._trie.covering(addr.value)):
            service = ports.get(key)
            if service is not None:
                return service
        return None

    def generation_of(self, addr: IPv4, port: int,
                      protocol: str = "TCP") -> RegistryToken:
        """Per-key revalidation token for the ``lookup_prefix`` decision.

        The token compares equal across two points in time iff every
        registry mutation in between was irrelevant to this identity: the
        exact ServiceID stamp changes on register/deregister of the host
        identity, and the trie's covering fingerprint changes when a
        covering prefix appears, disappears, or has its port map touched.
        A memoized ``lookup_prefix(addr, port, protocol)`` answer —
        positive *or* negative — is therefore still correct while the token
        is unchanged, no matter how many unrelated services churned. An
        identity with no registration and no covering prefixes yields
        ``(0, ())``, the token a negative cache entry revalidates against.
        """
        key = (addr, port, protocol)
        cached = self._token_cache.get(key)
        if cached is not None and cached[0] == self.generation:
            return cached[1]
        token: RegistryToken = (self._id_stamps.get(key, 0),
                                self._trie.covering_fingerprint(addr.value))
        if len(self._token_cache) >= _TOKEN_CACHE_CAPACITY:
            # Capacity bound, not a generation shortcut: entries revalidate
            # per key against the generation they were computed under.
            self._token_cache.clear()  # repro: noqa[REP009]
        self._token_cache[key] = (self.generation, token)
        return token

    def is_registered_address(self, addr: IPv4) -> bool:
        """Any service registered on this IP (for proxy-ARP)?  True for any
        address inside a subnet-registered prefix."""
        return self._trie.covers(addr.value)

    def covering_prefixes(self, addr: IPv4) -> List[Tuple[IPv4, int]]:
        """Registered prefixes covering ``addr``, shortest first (the LPM
        winner — what `lookup_prefix` prefers — is last)."""
        return [(IPv4(network), plen)
                for network, plen, _ in self._trie.covering(addr.value)]

    def services(self) -> List[EdgeService]:
        return list(self._services.values())

    def __len__(self) -> int:
        return len(self._services)

    def __contains__(self, service_id: ServiceID) -> bool:
        return service_id in self._services

    @staticmethod
    def _network_of(addr: IPv4, prefix_len: int) -> int:
        network = addr.value & prefix_mask(prefix_len)
        if network != addr.value:
            raise ValueError(
                f"service address {addr} has host bits below /{prefix_len}")
        return network

"""Service identity: the unique combination of address and port (§II).

Clients address edge services exactly as they would address the cloud
original; the platform recognises registered services by ``(IP, port,
protocol)``. Domain names resolve to IPs before registration (a static DNS
table stands in for resolution here).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, NamedTuple, Optional

from repro.netsim.addresses import IPv4, ip


class _Identity(NamedTuple):
    """ServiceID's fields — a base of their own because a ``NamedTuple`` body
    may not define ``__new__``, which is where ServiceID validates."""

    addr: IPv4
    port: int
    protocol: str = "TCP"


class ServiceID(_Identity):
    """``(address, port, protocol)`` — how the platform identifies a service.

    The identity *is* that tuple: it hashes and compares in C and equals the
    plain ``(addr, port, protocol)`` tuple, so a dict keyed on ServiceIDs can
    be probed with one and the read path never has to build a ServiceID.
    Construction validates, so an identity that exists is a nameable one.
    """

    __slots__ = ()

    def __new__(cls, addr: IPv4, port: int, protocol: str = "TCP") -> "ServiceID":
        if not 0 < port <= 65535:
            raise ValueError(f"bad port {port}")
        if protocol not in ("TCP", "UDP"):
            raise ValueError(f"unsupported protocol {protocol!r}")
        return tuple.__new__(cls, (addr, port, protocol))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "ServiceID":
        """NamedTuple's back door (``_replace`` goes through it) validates too."""
        return cls(*iterable)

    @classmethod
    def parse(cls, text: str, dns: Optional[Dict[str, IPv4]] = None,
              protocol: str = "TCP") -> "ServiceID":
        """Parse ``"1.2.3.4:80"`` or ``"api.example.com:443"`` (the latter
        needs a ``dns`` table)."""
        host, sep, port_text = text.rpartition(":")
        if not sep or not port_text.isdigit():
            raise ValueError(f"malformed service address {text!r}")
        try:
            addr = ip(host)
        except (ValueError, TypeError):
            if dns is None or host not in dns:
                raise ValueError(f"cannot resolve host {host!r}") from None
            addr = dns[host]
        return cls(addr=addr, port=int(port_text), protocol=protocol)

    @property
    def slug(self) -> str:
        """Filesystem/label-safe identifier used in annotations."""
        return f"{str(self.addr).replace('.', '-')}-{self.port}"

    def __str__(self) -> str:
        return f"{self.addr}:{self.port}"

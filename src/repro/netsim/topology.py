"""Topology construction helpers.

:class:`Network` owns the simulator plus address allocation and keeps an
inventory of hosts, switches, and links so experiments can build the paper's
fig. 8 topology (20 Raspberry Pi clients — OVS switch on the EGS — Docker /
K8s clusters — cloud uplink) in a few lines. See
:mod:`repro.experiments.topologies` for the canonical builders.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.netsim.addresses import MAC, IPv4
from repro.netsim.device import Device
from repro.netsim.host import Host
from repro.netsim.link import Link
from repro.simcore import RandomStreams, Simulator, TraceLog


class Network:
    """A simulator plus address pools and a device/link inventory."""

    def __init__(
        self,
        seed: int = 0,
        trace: Optional[TraceLog] = None,
        base_ip: str = "10.0.0.0",
        mac_prefix: int = 0x02_00_00_00_00_00,
    ):
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self.sim = Simulator(trace=self.trace)
        self.random = RandomStreams(seed)
        # Fault injection draws from its own named child streams of the run
        # seed; binding alone is inert (no streams exist until a fault point
        # is configured and rolled), so determinism of fault-free runs holds.
        self.sim.faults.bind(self.random.child("faults"))
        self._base_ip = IPv4(base_ip)
        self._next_host_suffix = 1
        self._mac_prefix = mac_prefix
        self._next_mac_suffix = 1
        self.hosts: Dict[str, Host] = {}
        self.devices: Dict[str, Device] = {}
        self.links: list[Link] = []

    # ------------------------------------------------------------ allocation

    def alloc_ip(self) -> IPv4:
        addr = IPv4(self._base_ip.value + self._next_host_suffix)
        self._next_host_suffix += 1
        return addr

    def alloc_mac(self) -> MAC:
        addr = MAC(self._mac_prefix + self._next_mac_suffix)
        self._next_mac_suffix += 1
        return addr

    # ------------------------------------------------------------- building

    def add_host(
        self,
        name: str,
        ip_addr: Optional[IPv4] = None,
        mac_addr: Optional[MAC] = None,
        gateway: Optional[IPv4] = None,
        prefix_len: int = 8,
    ) -> Host:
        """Create and register a host (addresses auto-allocated if omitted)."""
        if name in self.devices:
            raise ValueError(f"duplicate device name {name!r}")
        host = Host(
            self.sim,
            name,
            ip_addr if ip_addr is not None else self.alloc_ip(),
            mac_addr if mac_addr is not None else self.alloc_mac(),
            gateway=gateway,
            prefix_len=prefix_len,
        )
        self.hosts[name] = host
        self.devices[name] = host
        return host

    def add_device(self, device: Device) -> Device:
        """Register an externally-constructed device (e.g. an OpenFlow switch)."""
        if device.name in self.devices:
            raise ValueError(f"duplicate device name {device.name!r}")
        self.devices[device.name] = device
        return device

    def connect(
        self,
        a: Device,
        a_port: int,
        b: Device,
        b_port: int,
        latency_s: float = 0.0001,
        bandwidth_bps: Optional[float] = 1e9,
        name: str = "",
    ) -> Link:
        """Wire two device ports with a link."""
        link = Link(self.sim, a, a_port, b, b_port,
                    latency_s=latency_s, bandwidth_bps=bandwidth_bps, name=name)
        self.links.append(link)
        return link

    # -------------------------------------------------------------- running

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    @property
    def now(self) -> float:
        return self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Network hosts={len(self.hosts)} devices={len(self.devices)} "
                f"links={len(self.links)} t={self.sim.now:.6f}>")

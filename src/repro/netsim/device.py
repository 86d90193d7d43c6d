"""Base class for anything with network ports (hosts, switches, routers)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.netsim.packet import EthernetFrame

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.link import Link
    from repro.simcore import Simulator


class Device:
    """A node with numbered ports attached to :class:`~repro.netsim.link.Link`\\ s.

    Subclasses implement :meth:`on_frame` to process arriving frames and call
    :meth:`transmit` to emit frames out of a port.
    """

    def __init__(self, sim: "Simulator", name: str):
        self.sim = sim
        self.name = name
        self.links: Dict[int, "Link"] = {}
        #: per-port receive / transmit frame counters (diagnostics)
        self.rx_frames = 0
        self.tx_frames = 0

    # ------------------------------------------------------------- wiring

    def attach_link(self, port_no: int, link: "Link") -> None:
        if port_no in self.links:
            raise ValueError(f"{self.name}: port {port_no} already wired")
        self.links[port_no] = link

    def port_of_link(self, link: "Link") -> int:
        for port_no, candidate in self.links.items():
            if candidate is link:
                return port_no
        raise KeyError(f"{self.name}: link {link!r} not attached")

    @property
    def port_numbers(self) -> list[int]:
        return sorted(self.links)

    # ------------------------------------------------------------ data path

    def transmit(self, port_no: int, frame: EthernetFrame) -> None:
        """Send ``frame`` out of ``port_no`` (drops silently on an unwired
        port, mirroring a real NIC with no carrier)."""
        try:
            link = self.links[port_no]
        except KeyError:
            self.sim.trace.emit(self.sim.now, "net", "tx-drop",
                                {"device": self.name, "port": port_no})
            return
        self.tx_frames += 1
        link.transmit(self, frame)

    def deliver(self, port_no: int, frame: EthernetFrame) -> None:
        """Inject a frame arriving on ``port_no`` (``Link._deliver`` does
        the same inline)."""
        self.rx_frames += 1
        self.on_frame(port_no, frame)

    def on_frame(self, port_no: int, frame: EthernetFrame) -> None:
        """Process an arriving frame. Subclass responsibility."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} ports={self.port_numbers}>"

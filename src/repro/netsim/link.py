"""Full-duplex point-to-point links with latency and serialization delay.

Delivery time for a frame entering an idle direction is::

    now + frame_bytes * 8 / bandwidth_bps + latency_s

Each direction keeps an independent "transmitter busy until" clock, so a
burst of frames queues FIFO behind the one currently serializing — this is
what turns the 83 KiB ResNet upload into ~57 segments of back-to-back
transmission on the 1 Gbps access link instead of a single lump delay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.netsim.packet import EthernetFrame

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.device import Device
    from repro.simcore import Simulator


class Link:
    """A bidirectional link between two device ports.

    Parameters
    ----------
    latency_s:
        One-way propagation delay in seconds.
    bandwidth_bps:
        Serialization rate in bits per second. ``None`` means infinite
        (zero serialization delay) — useful for control-channel modelling.
    """

    def __init__(
        self,
        sim: "Simulator",
        a: "Device",
        a_port: int,
        b: "Device",
        b_port: int,
        latency_s: float = 0.0001,
        bandwidth_bps: Optional[float] = 1e9,
        name: str = "",
    ):
        if latency_s < 0:
            raise ValueError("negative latency")
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive or None")
        self.sim = sim
        self.a = a
        self.a_port = a_port
        self.b = b
        self.b_port = b_port
        self.latency_s = latency_s
        self.bandwidth_bps = bandwidth_bps
        self.name = name or f"{a.name}:{a_port}<->{b.name}:{b_port}"
        self.up = True
        # Independent serialization clocks per direction (full duplex),
        # keyed by the sending device (identity hash — never iterated).
        self._busy_until: dict["Device", float] = {a: 0.0, b: 0.0}
        #: delivered frame count (diagnostics)
        self.frames_delivered = 0
        self.bytes_delivered = 0
        a.attach_link(a_port, self)
        b.attach_link(b_port, self)

    # ----------------------------------------------------------- data path

    def transmit(self, sender: "Device", frame: EthernetFrame) -> None:
        """Queue ``frame`` for delivery to the opposite endpoint.

        The frame's size was stored when it was built and rides along to
        :meth:`_deliver`. The arithmetic is kept in exactly this order —
        every later timestamp of the run is built from these floats.
        """
        sim = self.sim
        if not self.up:
            sim.trace.emit(sim.now, "net", "link-drop",
                           {"link": self.name, "frame": frame.describe()})
            return
        faults = sim.faults
        if faults.points and faults.roll("link.loss"):
            sim.trace.emit(sim.now, "net", "link-fault-drop",
                           {"link": self.name, "frame": frame.describe()})
            return
        if sender is self.a:
            receiver, rx_port = self.b, self.b_port
        elif sender is self.b:
            receiver, rx_port = self.a, self.a_port
        else:
            raise ValueError(f"{sender!r} is not an endpoint of {self.name}")
        now = sim.now
        nbytes = frame.wire_bytes
        busy = self._busy_until[sender]
        start = busy if busy > now else now
        bandwidth = self.bandwidth_bps
        done_serializing = start + (0.0 if bandwidth is None else nbytes * 8.0 / bandwidth)
        self._busy_until[sender] = done_serializing
        arrival_delay = (done_serializing - now) + self.latency_s
        sim.schedule(arrival_delay, self._deliver, receiver, rx_port, frame, nbytes)

    def _deliver(self, receiver: "Device", rx_port: int, frame: EthernetFrame,
                 nbytes: int) -> None:
        if not self.up:
            return  # went down while in flight
        self.frames_delivered += 1
        self.bytes_delivered += nbytes
        # Device.deliver inlined: one call less per hop.
        receiver.rx_frames += 1
        receiver.on_frame(rx_port, frame)

    # ------------------------------------------------------------- control

    def set_up(self, up: bool) -> None:
        """Bring the link up/down (failure injection in tests)."""
        self.up = up

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bw = "inf" if self.bandwidth_bps is None else f"{self.bandwidth_bps / 1e6:.0f}Mbps"
        return f"<Link {self.name} {self.latency_s * 1e3:.3f}ms {bw} {'up' if self.up else 'DOWN'}>"

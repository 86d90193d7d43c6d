"""End-host network stack: ARP, gateway routing, TCP-like streams, UDP.

The stack is deliberately message-oriented above layer 4: an application
sends *messages* (e.g. :class:`~repro.netsim.packet.HTTPRequest`) with an
explicit byte size; the stack segments them into MSS-sized TCP segments,
reassembles on the receiver, and delivers the original object. Reliability
machinery is limited to what the measured scenarios exercise:

* 3-way handshake with client-side SYN retransmission (exponential backoff,
  like Linux ``tcp_syn_retries``) — this is what keeps a request alive while
  the SDN controller holds the first packet during an on-demand deployment;
* RST on closed ports — the reason the controller must port-probe a freshly
  scaled-up service before installing flows (paper, §VI);
* FIN/ACK teardown.

In-order, loss-free delivery is guaranteed by the link layer (FIFO links),
so data retransmission/windowing is intentionally not modelled.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.netsim.addresses import BROADCAST_MAC, MAC, IPv4
from repro.netsim.device import Device
from repro.netsim.packet import (
    ETH_TYPE_ARP,
    ETH_TYPE_IP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    TCP_FIN_ACK,
    TCP_MSS,
    TCP_PSH_ACK,
    TCP_RST_ACK,
    TCP_SYN_ACK,
    ArpOp,
    ArpPacket,
    EthernetFrame,
    IPv4Packet,
    TCPFlags,
    TCPSegment,
    UDPDatagram,
)
from repro.simcore.signal import _UNSET

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.link import Link
    from repro.simcore import Signal, Simulator


class NetworkStateError(RuntimeError):
    """An operation was attempted in an invalid host/connection state.

    Subclasses :class:`RuntimeError` for backwards compatibility with
    pre-typed-hierarchy callers.
    """


class ConnectionRefused(Exception):
    """Peer answered the SYN with RST (closed port)."""


class ConnectTimeout(Exception):
    """All SYN (re)transmissions went unanswered."""


class TCPState(enum.Enum):
    CLOSED = "closed"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT = "fin-wait"
    CLOSE_WAIT = "close-wait"


ConnKey = Tuple[int, IPv4, int]  # (local_port, remote_ip, remote_port)

#: Initial SYN retransmission timeout and retry budget (Linux-ish defaults,
#: scaled down: 1 s, doubling, 6 attempts ≈ 63 s worst case).
SYN_RTO_INITIAL = 1.0
SYN_RETRIES = 6

EPHEMERAL_PORT_START = 40000

#: ARP request retransmission interval and budget.
ARP_RETRY_INTERVAL = 1.0
ARP_MAX_RETRIES = 60

#: Flag bits as plain ints: the receive path tests several per segment, and
#: ``&`` on two ``TCPFlags`` members goes through the enum machinery.
_FIN = int(TCPFlags.FIN)
_SYN = int(TCPFlags.SYN)
_RST = int(TCPFlags.RST)
_ACK = int(TCPFlags.ACK)


class Connection:
    """One TCP connection endpoint.

    Application-facing API:

    * ``yield conn.request(msg, size)`` — send a message, wait for the reply
      message (client request/response idiom);
    * ``conn.send(msg, size)`` — fire-and-forget message send;
    * ``conn.on_message`` — server-side callback ``(conn, message) -> None``;
    * ``conn.close()`` — FIN teardown;
    * ``conn.established`` / ``conn.closed`` — signals.
    """

    def __init__(
        self,
        host: "Host",
        local_port: int,
        remote_ip: IPv4,
        remote_port: int,
        *,
        is_client: bool,
    ):
        self.host = host
        self.sim = host.sim
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        #: the host's table key; its three fields are never reassigned
        self.key: ConnKey = (local_port, remote_ip, remote_port)
        self.is_client = is_client
        self.state = TCPState.CLOSED
        self.snd_nxt = 0
        self.rcv_nxt = 0
        #: completes with self once ESTABLISHED / fails on refusal or timeout
        self.established: "Signal" = host.sim.signal(f"{host.name}:conn-est:{local_port}")
        #: completes when fully closed
        self.closed: "Signal" = host.sim.signal(f"{host.name}:conn-closed:{local_port}")
        #: server-side message callback (set by the listener's handler factory)
        self.on_message: Optional[Callable[["Connection", Any], None]] = None
        self._response_waiters: list["Signal"] = []
        self._rx_fragments_bytes = 0
        self._syn_attempts = 0
        self._syn_timer = None
        #: time the first SYN left (curl's t=0 for time_connect/time_total)
        self.syn_sent_at: Optional[float] = None
        self.established_at: Optional[float] = None

    # ------------------------------------------------------------ handshake

    def _start_connect(self) -> None:
        self.state = TCPState.SYN_SENT
        self.syn_sent_at = self.sim.now
        self._send_syn()

    def _send_syn(self) -> None:
        self._syn_attempts += 1
        if self._syn_attempts > SYN_RETRIES:
            self.state = TCPState.CLOSED
            self.host._forget_connection(self)
            if not self.established.done:
                self.established.fail(ConnectTimeout(
                    f"{self.host.name}: connect to {self.remote_ip}:{self.remote_port} timed out"))
            return
        self._emit(TCPFlags.SYN)
        rto = SYN_RTO_INITIAL * (2 ** (self._syn_attempts - 1))
        self._syn_timer = self.sim.schedule(rto, self._syn_retransmit)

    def _syn_retransmit(self) -> None:
        if self.state is TCPState.SYN_SENT:
            self.host.stats["syn_retransmits"] += 1
            self._send_syn()

    def _cancel_syn_timer(self) -> None:
        if self._syn_timer is not None:
            self._syn_timer.cancel()
            self._syn_timer = None

    # ------------------------------------------------------------- send path

    def send(self, message: Any, size_bytes: int = 0) -> None:
        """Send one application message, segmented at the MSS.

        All fragments carry ``payload=None`` except the last, which carries
        the message object itself (reassembly is just byte counting because
        links are FIFO and loss-free).
        """
        if self.state not in (TCPState.ESTABLISHED, TCPState.CLOSE_WAIT):
            raise NetworkStateError(f"send() on {self.state.value} connection")
        remaining = int(size_bytes) if size_bytes > 0 else 0
        while True:
            chunk = min(remaining, TCP_MSS)
            remaining -= chunk
            last = remaining == 0
            self._emit(
                TCP_PSH_ACK if last else TCPFlags.ACK,
                payload=message if last else None,
                payload_bytes=chunk,
                last_fragment=last,
            )
            # an empty message still takes one sequence number
            self.snd_nxt += chunk if chunk else (1 if size_bytes == 0 else 0)
            if last:
                break

    def request(self, message: Any, size_bytes: int = 0) -> "Signal":
        """Send ``message`` and return a signal completing with the next
        message received on this connection (request/response idiom)."""
        waiter = self.sim.signal(f"{self.host.name}:response:{self.local_port}")
        self._response_waiters.append(waiter)
        self.send(message, size_bytes)
        return waiter

    def next_message(self) -> "Signal":
        """Signal completing with the next received message (no send)."""
        waiter = self.sim.signal(f"{self.host.name}:next-msg:{self.local_port}")
        self._response_waiters.append(waiter)
        return waiter

    def close(self) -> None:
        """Initiate FIN teardown (idempotent)."""
        if self.state is TCPState.ESTABLISHED:
            self.state = TCPState.FIN_WAIT
            self._emit(TCP_FIN_ACK)
        elif self.state is TCPState.CLOSE_WAIT:
            self._finish_close()
            self._emit(TCP_FIN_ACK)

    def abort(self) -> None:
        """Send RST and drop state immediately (used by port probes)."""
        if self.state is not TCPState.CLOSED:
            self._emit(TCPFlags.RST)
            self._finish_close()

    def _finish_close(self) -> None:
        self.state = TCPState.CLOSED
        self.host._forget_connection(self)
        self.closed.set_if_unset(None)

    # ------------------------------------------------------------- rx path

    def _on_segment(self, seg: TCPSegment) -> None:
        # ``established`` is tested through its two slots inline, as
        # ``Signal.set`` does: a ``done`` property read is one more call.
        established = self.established
        flags = int(seg.flags)
        if flags & _RST:
            self._cancel_syn_timer()
            if (self.state is TCPState.SYN_SENT and established._value is _UNSET
                    and established._exception is None):
                established.fail(ConnectionRefused(
                    f"{self.remote_ip}:{self.remote_port} refused connection"))
            self._finish_close()
            return

        if self.state is TCPState.SYN_SENT:
            if flags & _SYN and flags & _ACK:
                self._cancel_syn_timer()
                self.state = TCPState.ESTABLISHED
                self.established_at = self.sim.now
                self._emit(TCPFlags.ACK)
                if established._value is _UNSET and established._exception is None:
                    established.set(self)
            return

        if self.state is TCPState.SYN_RCVD:
            if flags & _SYN:
                # duplicate SYN (client retransmitted while our SYN-ACK was
                # in flight or the controller replayed the buffered packet):
                # re-send the SYN-ACK, as a real stack would.
                self._emit(TCP_SYN_ACK)
                return
            if flags & _ACK:
                self.state = TCPState.ESTABLISHED
                self.established_at = self.sim.now
                if established._value is _UNSET and established._exception is None:
                    established.set(self)
                # fall through: the ACK may carry data
            if seg.payload_bytes == 0 and seg.payload is None:
                return

        if self.state not in (TCPState.ESTABLISHED, TCPState.FIN_WAIT, TCPState.CLOSE_WAIT):
            return

        if flags & _FIN:
            if self.state is TCPState.ESTABLISHED:
                self.state = TCPState.CLOSE_WAIT
                self._emit(TCPFlags.ACK)
                # Passive close completes immediately in this model.
                self.close()
            elif self.state is TCPState.FIN_WAIT:
                self._emit(TCPFlags.ACK)
                self._finish_close()
            return

        if seg.payload_bytes > 0 or seg.payload is not None:
            self._rx_fragments_bytes += seg.payload_bytes
            self.rcv_nxt += seg.payload_bytes
            if seg.last_fragment:
                message = seg.payload
                self._rx_fragments_bytes = 0
                self._deliver_message(message)

    def _deliver_message(self, message: Any) -> None:
        if self._response_waiters:
            waiter = self._response_waiters.pop(0)
            if waiter._value is _UNSET and waiter._exception is None:
                waiter.set(message)
                return
        if self.on_message is not None:
            self.on_message(self, message)
        else:
            self.host.stats["orphan_messages"] += 1

    # ------------------------------------------------------------- plumbing

    def _emit(
        self,
        flags: TCPFlags,
        payload: Any = None,
        payload_bytes: int = 0,
        last_fragment: bool = True,
    ) -> None:
        seg = TCPSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=self.snd_nxt,
            ack=self.rcv_nxt,
            flags=flags,
            payload=payload,
            payload_bytes=payload_bytes,
            last_fragment=last_fragment,
        )
        self.host.send_ip(self.remote_ip, IP_PROTO_TCP, seg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Connection {self.host.name}:{self.local_port} <-> "
                f"{self.remote_ip}:{self.remote_port} {self.state.value}>")


class Host(Device):
    """A single-NIC end host (UE, edge node, or cloud server).

    Parameters
    ----------
    ip_addr, mac_addr:
        The host's layer-3/layer-2 addresses.
    gateway:
        Default-gateway IP for off-subnet destinations. The transparent-edge
        fabric gives every host the controller's virtual-router IP here.
    prefix_len:
        Subnet prefix, 0-32; on-subnet destinations are ARPed directly.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        ip_addr: IPv4,
        mac_addr: MAC,
        gateway: Optional[IPv4] = None,
        prefix_len: int = 24,
    ):
        super().__init__(sim, name)
        self.ip = ip_addr
        self.mac = mac_addr
        self.gateway = gateway
        self.prefix_len = prefix_len  # validated, and the netmask computed
        self.arp_cache: Dict[IPv4, MAC] = {}
        self._arp_pending: Dict[IPv4, list] = {}  # next_hop -> [IPv4Packet]
        self._connections: Dict[ConnKey, Connection] = {}
        self._listeners: Dict[int, Callable[[Connection], None]] = {}
        self._udp_listeners: Dict[int, Callable[[IPv4, UDPDatagram], None]] = {}
        self._next_ephemeral = EPHEMERAL_PORT_START
        #: resolved when a link is attached, not per transmitted frame
        self._uplink_port: Optional[int] = None
        self.stats: Dict[str, int] = {
            "syn_retransmits": 0,
            "rst_sent": 0,
            "orphan_messages": 0,
            "arp_requests": 0,
            "dropped_not_mine": 0,
        }

    # --------------------------------------------------------------- wiring

    def attach_link(self, port_no: int, link: "Link") -> None:
        super().attach_link(port_no, link)
        self._uplink_port = min(self.links)

    @property
    def prefix_len(self) -> int:
        return self._prefix_len

    @prefix_len.setter
    def prefix_len(self, prefix_len: int) -> None:
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"{self.name}: bad prefix length {prefix_len}")
        self._prefix_len = prefix_len
        self._netmask = ((1 << prefix_len) - 1) << (32 - prefix_len)

    @property
    def uplink_port(self) -> int:
        """The single NIC's port number (hosts are single-homed)."""
        if self._uplink_port is None:
            raise NetworkStateError(f"{self.name}: no link attached")
        return self._uplink_port

    # ------------------------------------------------------------ listeners

    def listen(self, port: int, on_connection: Callable[[Connection], None]) -> None:
        """Accept TCP connections on ``port``.

        ``on_connection(conn)`` is invoked when the handshake begins; it
        should set ``conn.on_message`` to receive application messages.
        """
        if port in self._listeners:
            raise ValueError(f"{self.name}: port {port} already listening")
        self._listeners[port] = on_connection

    def unlisten(self, port: int) -> None:
        """Stop accepting on ``port`` (existing connections unaffected)."""
        self._listeners.pop(port, None)

    def listening_on(self, port: int) -> bool:
        return port in self._listeners

    def listen_udp(self, port: int, on_datagram: Callable[[IPv4, UDPDatagram], None]) -> None:
        self._udp_listeners[port] = on_datagram

    # -------------------------------------------------------------- connect

    def connect(self, remote_ip: IPv4, remote_port: int, local_port: Optional[int] = None) -> "Signal":
        """Open a TCP connection; returns the connection's ``established``
        signal (completes with the :class:`Connection`, fails with
        :class:`ConnectionRefused` / :class:`ConnectTimeout`)."""
        if local_port is None:
            local_port = self._alloc_port()
        conn = Connection(self, local_port, remote_ip, remote_port, is_client=True)
        key = conn.key
        if key in self._connections:
            raise ValueError(f"{self.name}: connection {key} already exists")
        self._connections[key] = conn
        conn._start_connect()
        return conn.established

    def _alloc_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        if self._next_ephemeral > 65535:
            self._next_ephemeral = EPHEMERAL_PORT_START
        return port

    def _forget_connection(self, conn: Connection) -> None:
        self._connections.pop(conn.key, None)

    @property
    def connection_count(self) -> int:
        return len(self._connections)

    # ---------------------------------------------------------------- IP tx

    def send_ip(self, dst: IPv4, proto: int, payload) -> None:
        """Send an IPv4 packet, resolving the next hop's MAC via ARP."""
        packet = IPv4Packet(src=self.ip, dst=dst, proto=proto, payload=payload)
        next_hop = self.gateway
        if next_hop is None or not (dst.value ^ self.ip.value) & self._netmask:
            next_hop = dst  # on-link
        nh_mac = self.arp_cache.get(next_hop)
        if nh_mac is not None:
            self._tx_ip(nh_mac, packet)
            return
        queue = self._arp_pending.get(next_hop)
        if queue is not None:
            queue.append(packet)
            return
        self._arp_pending[next_hop] = [packet]
        self._send_arp_request(next_hop)
        self.sim.schedule(ARP_RETRY_INTERVAL, self._arp_retry, next_hop, 1)

    def _tx_ip(self, dst_mac: MAC, packet: IPv4Packet) -> None:
        frame = EthernetFrame(src=self.mac, dst=dst_mac, ethertype=ETH_TYPE_IP,
                              payload=packet)
        port = self._uplink_port
        if port is None:
            raise NetworkStateError(f"{self.name}: no link attached")
        self.transmit(port, frame)

    def send_udp(self, dst: IPv4, dst_port: int, payload: Any, size_bytes: int = 0,
                 src_port: Optional[int] = None) -> None:
        datagram = UDPDatagram(
            src_port=src_port if src_port is not None else self._alloc_port(),
            dst_port=dst_port, payload=payload, payload_bytes=size_bytes,
        )
        self.send_ip(dst, IP_PROTO_UDP, datagram)

    # ------------------------------------------------------------------ ARP

    def _arp_retry(self, target_ip: IPv4, attempt: int) -> None:
        """Retransmit an unanswered ARP request (real stacks probe ~3 times;
        we keep probing longer because SYN retransmissions keep refilling the
        pending queue during slow on-demand deployments)."""
        if target_ip not in self._arp_pending:
            return  # resolved meanwhile
        if attempt >= ARP_MAX_RETRIES:
            self._arp_pending.pop(target_ip, None)  # drop queued packets
            return
        self._send_arp_request(target_ip)
        self.sim.schedule(ARP_RETRY_INTERVAL, self._arp_retry, target_ip, attempt + 1)

    def _send_arp_request(self, target_ip: IPv4) -> None:
        self.stats["arp_requests"] += 1
        arp = ArpPacket(
            op=ArpOp.REQUEST,
            sender_mac=self.mac, sender_ip=self.ip,
            target_mac=MAC(0), target_ip=target_ip,
        )
        frame = EthernetFrame(src=self.mac, dst=BROADCAST_MAC, ethertype=ETH_TYPE_ARP,
                              payload=arp)
        self.transmit(self.uplink_port, frame)

    def _on_arp(self, arp: ArpPacket) -> None:
        # Learn opportunistically from both requests and replies.
        self.arp_cache[arp.sender_ip] = arp.sender_mac
        pending = self._arp_pending.pop(arp.sender_ip, None)
        if pending:
            for packet in pending:
                self._tx_ip(arp.sender_mac, packet)
        if arp.op == ArpOp.REQUEST and arp.target_ip == self.ip:
            reply = ArpPacket(
                op=ArpOp.REPLY,
                sender_mac=self.mac, sender_ip=self.ip,
                target_mac=arp.sender_mac, target_ip=arp.sender_ip,
            )
            frame = EthernetFrame(src=self.mac, dst=arp.sender_mac, ethertype=ETH_TYPE_ARP,
                                  payload=reply)
            self.transmit(self.uplink_port, frame)

    # ------------------------------------------------------------------ rx

    def on_frame(self, port_no: int, frame: EthernetFrame) -> None:
        # Addresses are interned, so identity is equality.
        dst = frame.dst
        if dst is not self.mac and dst is not BROADCAST_MAC:
            self.stats["dropped_not_mine"] += 1
            return
        packet = frame.payload
        if type(packet) is IPv4Packet:
            if packet.dst is not self.ip:
                self.stats["dropped_not_mine"] += 1
                return
            if packet.proto == IP_PROTO_TCP:
                self._on_tcp(packet.src, packet.payload)  # type: ignore[arg-type]
            elif packet.proto == IP_PROTO_UDP:
                dg: UDPDatagram = packet.payload  # type: ignore[assignment]
                listener = self._udp_listeners.get(dg.dst_port)
                if listener is not None:
                    listener(packet.src, dg)
        elif type(packet) is ArpPacket:
            self._on_arp(packet)

    def _on_tcp(self, src_ip: IPv4, seg: TCPSegment) -> None:
        key: ConnKey = (seg.dst_port, src_ip, seg.src_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn._on_segment(seg)
            return
        flags = int(seg.flags)
        if flags & _SYN and not flags & _ACK:
            accept = self._listeners.get(seg.dst_port)
            if accept is not None:
                conn = Connection(self, seg.dst_port, src_ip, seg.src_port, is_client=False)
                conn.state = TCPState.SYN_RCVD
                self._connections[key] = conn
                accept(conn)
                conn._emit(TCP_SYN_ACK)
                return
            # Closed port: refuse.
            self.stats["rst_sent"] += 1
            rst = TCPSegment(src_port=seg.dst_port, dst_port=seg.src_port,
                             flags=TCP_RST_ACK)
            self.send_ip(src_ip, IP_PROTO_TCP, rst)
            return
        if not flags & _RST:
            # Stray non-SYN segment for an unknown connection -> RST.
            self.stats["rst_sent"] += 1
            rst = TCPSegment(src_port=seg.dst_port, dst_port=seg.src_port, flags=TCPFlags.RST)
            self.send_ip(src_ip, IP_PROTO_TCP, rst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} {self.ip} ({self.mac})>"

"""Million-client scale workload: the :class:`ClientBank` device.

A :class:`~repro.netsim.host.Host` models one UE faithfully — ARP cache,
connection table, listener map, per-host stats. At 100k+ clients that
fidelity costs hundreds of bytes per *idle* client and a Python object
graph the allocator has to walk. :class:`ClientBank` is the scale-path
alternative: **one** device that impersonates ``n_clients`` clients on a
single switch port, holding state only for the conversations currently in
flight (a closed-loop window), and aggregating latencies through
:class:`~repro.workloads.loadgen.LoadResult` in streaming mode
(``keep_timings=False``). A conversation that ends — closed, reset or
timed out — leaves nothing in the bank: its entry is dropped and its
watchdog event is cancelled, so the bank's objects *and* its pending events
are bounded by the window. What a finished client still leaves elsewhere
(the controller's learned host, the interned addresses) is listed in
``docs/performance.md``, "What a finished client leaves behind".

Wire fidelity: each impersonated client replays exactly the frame sequence
a real :class:`~repro.netsim.host.Host` + ``TimedHTTPClient`` pair emits
for one ``GET`` (verified frame-by-frame by
``tests/workloads/test_client_bank.py``):

1. ``SYN`` — the packet-in that triggers transparent dispatch;
2. ``ACK`` on the ``SYN-ACK``, then the single-segment request
   (``ACK|PSH``, ``last_fragment=True``);
3. on the response's final fragment: record the latency, send ``FIN|ACK``
   (curl's ``time_total`` stops *before* the close, and so does ours);
4. on the server's ``FIN|ACK``: send the final ``ACK`` and forget the
   conversation (the server, which forgot the connection when it emitted
   its FIN, answers that ACK with a stray ``RST`` — ignored here exactly
   as a closed real stack ignores it).

Clients address frames straight to the virtual gateway MAC (a real client
resolves it once via proxy ARP and caches it forever; the bank skips the
one-time resolution), with per-client source IP/MAC derived from the
client index — interned, so repeated conversations reuse the singletons.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.metrics.stats import StreamingStats
from repro.netsim.addresses import IPv4, MAC, ip
from repro.netsim.device import Device
from repro.netsim.packet import (
    ETH_TYPE_IP,
    IP_PROTO_TCP,
    TCP_FIN_ACK,
    TCP_PSH_ACK,
    TCP_SYN_ACK,
    EthernetFrame,
    HTTPRequest,
    IPv4Packet,
    TCPFlags,
    TCPSegment,
)
from repro.workloads.clients import RequestTiming
from repro.workloads.loadgen import LoadResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore import EventHandle, Simulator

#: Bank clients live in 10.64.0.0/10 — disjoint from the testbed's
#: 10.0.0.0/24 host allocations, room for ~4M clients.
BANK_NET = ip("10.64.0.0")
BANK_PREFIX_LEN = 10

#: Locally-administered OUI for bank client MACs.
BANK_MAC_BASE = 0x02BA00000000

#: Abort an in-flight conversation that made no progress for this long
#: (dispatch failure, dropped release, ...). Generous: a cold-start
#: deployment under the default retry policy stays well inside it.
CONVERSATION_TIMEOUT_S = 30.0

#: Flag bits as plain ints: ``&`` on two ``TCPFlags`` members goes through
#: the enum machinery, and the receive path tests several per segment.
_SYN_ACK = int(TCP_SYN_ACK)
_FIN = int(TCPFlags.FIN)
_RST = int(TCPFlags.RST)


class BankAlreadyStartedError(RuntimeError):
    """:meth:`ClientBank.start` was called twice."""


class BankStalledError(RuntimeError):
    """:func:`run_client_bank` hit its chunk guard with work still open."""


class _Conversation:
    """In-flight state for one impersonated client (window-bounded)."""

    __slots__ = ("index", "ip", "mac", "state",
                 "snd_nxt", "rcv_nxt", "t0", "t_connect", "watchdog")

    #: the pending timeout, set right after the SYN leaves and cancelled
    #: when the conversation ends, so a finished client leaves no event
    watchdog: "EventHandle"

    # states
    SYN_SENT = 0
    AWAIT_RESPONSE = 1
    CLOSING = 2

    def __init__(self, index: int, addr: IPv4, mac_addr: MAC, t0: float):
        self.index = index
        self.ip = addr
        self.mac = mac_addr
        self.state = _Conversation.SYN_SENT
        self.snd_nxt = 0
        self.rcv_nxt = 0
        self.t0 = t0
        self.t_connect = 0.0


class ClientBank(Device):
    """``n_clients`` impersonated HTTP clients behind one switch port.

    Closed loop: at most ``window`` conversations are in flight; finishing
    (or aborting) one immediately launches the next unserved client, so the
    total frame count is deterministic. The conversation table and the
    pending watchdogs are both bounded by the window, never by
    ``n_clients``: an ending conversation cancels its watchdog.
    """

    def __init__(self, sim: "Simulator", name: str, n_clients: int,
                 service_addr: IPv4, service_port: int, vgw_mac: MAC,
                 window: int = 64, local_port: int = 40000,
                 request: Optional[HTTPRequest] = None,
                 client_base: int = 0):
        if n_clients <= 0:
            raise ValueError("need at least one client")
        if window <= 0:
            raise ValueError("window must be positive")
        if client_base < 0:
            raise ValueError("client_base must be non-negative")
        super().__init__(sim, name)
        self.n_clients = n_clients
        #: offset into the bank IP/MAC space — multiple banks (e.g. one
        #: per simulation domain) stay address-disjoint by spacing bases
        self.client_base = client_base
        self.service_addr = service_addr
        self.service_port = service_port
        self.vgw_mac = vgw_mac
        self.window = min(window, n_clients)
        self.local_port = local_port
        #: the single switch-facing port (unwired frames drop like a NIC
        #: with no carrier, so an unattached bank still times out cleanly)
        self.uplink_port = 0
        self.request = request if request is not None else HTTPRequest()
        self._request_bytes = self.request.wire_bytes
        #: streaming aggregation — constant memory at any client count
        self.result = LoadResult(keep_timings=False, stream=StreamingStats())
        self.launched = 0
        self.aborted = 0
        self._active: Dict[IPv4, _Conversation] = {}
        self._started = False

    # ------------------------------------------------------------ identity

    def client_ip(self, index: int) -> IPv4:
        return IPv4(BANK_NET.value + 2 + self.client_base + index)

    def client_mac(self, index: int) -> MAC:
        return MAC(BANK_MAC_BASE + 1 + self.client_base + index)

    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def done(self) -> bool:
        return (self._started and self.launched >= self.n_clients
                and not self._active)

    # -------------------------------------------------------------- driving

    def start(self, spacing_s: float = 0.0005) -> None:
        """Open the window: schedule the first ``window`` conversations,
        ``spacing_s`` apart (smooths the initial packet-in burst without
        changing determinism)."""
        if self._started:
            raise BankAlreadyStartedError(f"{self.name}: already started")
        self._started = True
        for slot in range(self.window):
            self.sim.schedule(slot * spacing_s, self._launch_next)

    def _launch_next(self) -> None:
        if self.launched >= self.n_clients:
            return
        index = self.launched
        self.launched += 1
        self.result.issued += 1
        conv = _Conversation(index, self.client_ip(index),
                             self.client_mac(index), self.sim.now)
        self._active[conv.ip] = conv
        self._emit(conv, TCPFlags.SYN)
        conv.watchdog = self.sim.schedule(CONVERSATION_TIMEOUT_S,
                                          self._watchdog, conv)

    def _fail(self, conv: _Conversation, error: str) -> None:
        """Account a failed conversation (``ok=False`` sample) and move on."""
        self._active.pop(conv.ip, None)
        conv.watchdog.cancel()
        elapsed = self.sim.now - conv.t0
        self.result.record(RequestTiming(
            client=self.name,
            t_start=conv.t0, time_connect=conv.t_connect,
            time_total=elapsed, status=0, error=error))
        self._launch_next()

    def _watchdog(self, conv: _Conversation) -> None:
        # Runs only for a conversation still in flight: one that ends
        # cancels its watchdog.
        self.aborted += 1
        self._fail(conv, "ConversationTimeout")

    # ------------------------------------------------------------- wire I/O

    def _emit(self, conv: _Conversation, flags: TCPFlags,
              payload: object = None, payload_bytes: int = 0) -> None:
        seg = TCPSegment(src_port=self.local_port, dst_port=self.service_port,
                         seq=conv.snd_nxt, ack=conv.rcv_nxt, flags=flags,
                         payload=payload, payload_bytes=payload_bytes,
                         last_fragment=True)
        packet = IPv4Packet(src=conv.ip, dst=self.service_addr,
                            proto=IP_PROTO_TCP, payload=seg)
        frame = EthernetFrame(src=conv.mac, dst=self.vgw_mac,
                              ethertype=ETH_TYPE_IP, payload=packet)
        self.transmit(self.uplink_port, frame)

    def on_frame(self, port_no: int, frame: EthernetFrame) -> None:
        packet = frame.payload
        if type(packet) is not IPv4Packet:
            return  # stray ARP broadcast — a real idle client ignores it too
        conv = self._active.get(packet.dst)
        if conv is None or packet.proto != IP_PROTO_TCP:
            return  # e.g. the server's RST answering our final ACK
        seg = packet.payload
        if type(seg) is not TCPSegment:  # pragma: no cover - defensive
            return
        flags = int(seg.flags)

        if flags & _RST:
            # Refused / torn down mid-conversation: a failure sample.
            self._fail(conv, "ConnectionRefused"
                       if conv.state == _Conversation.SYN_SENT
                       else "ConnectionReset")
            return

        if conv.state == _Conversation.SYN_SENT:
            if flags & _SYN_ACK == _SYN_ACK:
                conv.state = _Conversation.AWAIT_RESPONSE
                conv.t_connect = self.sim.now - conv.t0
                self._emit(conv, TCPFlags.ACK)
                self._emit(conv, TCP_PSH_ACK,
                           payload=self.request,
                           payload_bytes=self._request_bytes)
                conv.snd_nxt += self._request_bytes
            return

        if conv.state == _Conversation.AWAIT_RESPONSE:
            if seg.payload_bytes > 0 or seg.payload is not None:
                conv.rcv_nxt += seg.payload_bytes
                if seg.last_fragment:
                    timing = RequestTiming(
                        client=self.name,
                        t_start=conv.t0, time_connect=conv.t_connect,
                        time_total=self.sim.now - conv.t0,
                        status=getattr(seg.payload, "status", 200))
                    conv.state = _Conversation.CLOSING
                    self._emit(conv, TCP_FIN_ACK)
                    # Record *after* the FIN left: frame order then matches
                    # a real client, where close() follows the timing stop.
                    self._record_success(conv, timing)
            return

        if conv.state == _Conversation.CLOSING and flags & _FIN:
            self._emit(conv, TCPFlags.ACK)
            self._finish_closed(conv)
        # else: the server's plain ACK of our FIN — ignored.

    def _record_success(self, conv: _Conversation, timing: RequestTiming) -> None:
        # Success is recorded at response time but the conversation stays
        # active until the teardown handshake completes.
        self.result.record(timing)

    def _finish_closed(self, conv: _Conversation) -> None:
        self._active.pop(conv.ip, None)
        conv.watchdog.cancel()
        self._launch_next()


def attach_client_bank(testbed, service, n_clients: int, window: int = 64,
                       link_latency_s: float = 0.00015,
                       bandwidth_bps: float = 1e9,
                       zone: str = "access",
                       client_base: int = 0,
                       name: str = "client-bank") -> ClientBank:
    """Wire a :class:`ClientBank` for ``service`` onto the testbed switch.

    The whole bank subnet maps to ``zone`` with one
    :meth:`~repro.core.zones.ZoneMap.assign_subnet` entry — the proximity
    scheduler then treats bank clients exactly like the testbed's real
    access-zone clients, without 100k per-client zone assignments.
    """
    from repro.experiments.topologies import VGW_MAC

    bank = ClientBank(testbed.sim, name, n_clients,
                      service_addr=service.service_id.addr,
                      service_port=service.service_id.port,
                      vgw_mac=VGW_MAC, window=window, client_base=client_base)
    port_no = max(testbed.switch.port_numbers, default=0) + 1
    testbed.net.connect(bank, 0, testbed.switch, port_no,
                        latency_s=link_latency_s, bandwidth_bps=bandwidth_bps)
    testbed.zones.assign_subnet(BANK_NET, BANK_PREFIX_LEN, zone)
    return bank


def run_client_bank(testbed, bank: ClientBank, spacing_s: float = 0.0005,
                    chunk_s: float = 30.0, max_chunks: int = 10_000) -> LoadResult:
    """Start the bank and run the simulation until every client is served.

    Runs in bounded chunks rather than draining the event queue (periodic
    housekeeping — idle checks, timers — can keep the queue non-empty).
    """
    bank.start(spacing_s=spacing_s)
    chunks = 0
    while not bank.done:
        testbed.run(until=testbed.sim.now + chunk_s)
        chunks += 1
        if chunks >= max_chunks:  # pragma: no cover - defensive guard
            raise BankStalledError(
                f"{bank.name}: stalled with {bank.active_count} conversations "
                f"in flight after {chunks} chunks")
    return bank.result

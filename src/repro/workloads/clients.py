"""Timed HTTP clients — the simulation's ``timecurl.sh`` [30].

The paper measures ``time_total`` with curl: "everything from when Curl
starts establishing a TCP connection until it gets a response for the HTTP
request". :class:`TimedHTTPClient` reproduces that interval definition:
``t0`` is the moment the first SYN leaves, ``time_connect`` is when the
handshake completes, ``time_total`` when the full response arrived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.edge.services import ServiceBehavior
from repro.netsim.host import Host
from repro.netsim.packet import HTTPRequest, HTTPResponse

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.addresses import IPv4
    from repro.simcore import Process


@dataclass
class RequestTiming:
    """One measured request (curl-compatible fields)."""

    client: str
    t_start: float
    #: TCP connect duration (curl's time_connect)
    time_connect: float
    #: total request/response duration (curl's time_total)
    time_total: float
    status: int
    response: Optional[HTTPResponse] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300


class TimedHTTPClient:
    """Issues timed requests from a :class:`~repro.netsim.host.Host`."""

    def __init__(self, host: Host):
        self.host = host
        self.sim = host.sim

    def fetch(self, addr: "IPv4", port: int,
              request: Optional[HTTPRequest] = None,
              request_bytes: Optional[int] = None,
              close: bool = True) -> "Process":
        """One connection + one request/response, fully timed.

        Returns a process whose result is a :class:`RequestTiming`; network
        errors are captured in ``timing.error`` rather than raised, matching
        how a measurement script treats curl failures. The client keeps no
        timing itself: whoever holds the process owns its result (e.g. a
        :class:`~repro.workloads.loadgen.LoadResult`).
        """
        if request is None:
            request = HTTPRequest(method="GET", path="/")
        if request_bytes is None:
            request_bytes = request.wire_bytes

        def proc():
            t0 = self.sim.now
            try:
                conn = yield self.host.connect(addr, port)
            except Exception as exc:  # noqa: BLE001 - refused / timeout
                return RequestTiming(
                    client=self.host.name, t_start=t0,
                    time_connect=self.sim.now - t0,
                    time_total=self.sim.now - t0,
                    status=0, error=type(exc).__name__)
            t_connect = self.sim.now - t0
            response = yield conn.request(request, request_bytes)
            t_total = self.sim.now - t0
            if close:
                conn.close()
            return RequestTiming(
                client=self.host.name, t_start=t0,
                time_connect=t_connect, time_total=t_total,
                status=getattr(response, "status", 200), response=response)

        return self.sim.spawn(proc(), name=f"timecurl:{self.host.name}")

    def fetch_service(self, service_addr: "IPv4", port: int,
                      behavior: ServiceBehavior) -> "Process":
        """Fetch with the request shape typical for ``behavior`` (e.g. the
        83 KiB POST of the ResNet service)."""
        request, nbytes = behavior.make_request()
        return self.fetch(service_addr, port, request=request, request_bytes=nbytes)

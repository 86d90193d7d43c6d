"""Unit tests for the timecurl-style timed HTTP client."""

import gc
import weakref

import pytest

from repro.edge.services import ServiceBehavior, catalog_behavior
from repro.netsim import Network
from repro.workloads.clients import RequestTiming, TimedHTTPClient


@pytest.fixture
def rig():
    net = Network(seed=0)
    client_host = net.add_host("client")
    server = net.add_host("server")
    net.connect(client_host, 0, server, 0, latency_s=0.001, bandwidth_bps=1e9)
    behavior = ServiceBehavior(name="web", port=80, request_cpu_s=0.002,
                               response_bytes=500)
    server.listen(80, behavior.make_listener(net.sim))
    return net, TimedHTTPClient(client_host), server, behavior


def test_fetch_measures_connect_and_total(rig):
    net, client, server, behavior = rig
    p = client.fetch(server.ip, 80)
    net.run()
    timing = p.result
    assert timing.ok
    assert timing.status == 200
    # time_connect = ARP + handshake; time_total adds request + cpu + response
    assert 0 < timing.time_connect < timing.time_total
    assert timing.time_total >= behavior.request_cpu_s


def test_fetch_result_is_the_timing_and_the_client_keeps_none(rig):
    """The process result is the only home of a timing: once the caller
    drops the process, the timing (response and body included) is freed."""
    net, client, server, behavior = rig
    for _ in range(3):
        p = client.fetch(server.ip, 80)
        net.run()
        assert isinstance(p.result, RequestTiming)
        assert p.result.ok
    finished = weakref.ref(p.result)
    del p
    gc.collect()
    assert finished() is None
    assert not hasattr(client, "timings")


def test_refused_port_reported_as_error_not_raised(rig):
    net, client, server, behavior = rig
    p = client.fetch(server.ip, 9999)
    net.run()
    timing = p.result
    assert not timing.ok
    assert timing.error == "ConnectionRefused"
    assert timing.status == 0
    assert timing.time_total > 0


def test_fetch_service_uses_behavior_request_shape(rig):
    net, client, server, behavior = rig
    resnet = catalog_behavior("resnet")
    received = {}

    def on_conn(conn):
        def on_msg(c, msg):
            received["method"] = msg.method
            received["bytes"] = msg.body_bytes
            from repro.netsim.packet import HTTPResponse
            c.send(HTTPResponse(200), 160)
        conn.on_message = on_msg

    server.listen(resnet.port, on_conn)
    p = client.fetch_service(server.ip, resnet.port, resnet)
    net.run()
    assert p.result.ok
    assert received["method"] == "POST"
    assert received["bytes"] == 83 * 1024


def test_large_upload_takes_longer_than_small(rig):
    net, client, server, behavior = rig
    small = client.fetch(server.ip, 80)
    net.run()
    big = client.fetch_service(server.ip, 80, catalog_behavior("resnet")
                               .__class__(name="x", port=80,
                                          request_bytes=500_000,
                                          http_method="POST"))
    net.run()
    assert big.result.time_total > small.result.time_total


def test_connection_closed_after_fetch(rig):
    net, client, server, behavior = rig
    client.fetch(server.ip, 80)
    net.run()
    assert server.connection_count == 0

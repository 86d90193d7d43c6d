"""ClientBank wire fidelity and scale behavior.

The headline test taps the client-side port in two otherwise identical
warm testbeds — one driving a real :class:`~repro.netsim.host.Host` +
``TimedHTTPClient``, one driving a single-client :class:`ClientBank` —
and requires the TCP frame sequences to match field-for-field (flags,
seq/ack, payload bytes, fragment marking, payload kind) in both
directions. That is the contract scale results rest on: A6 numbers are
about *many* clients, not *different* clients.
"""

import pytest

from repro.experiments import build_testbed
from repro.netsim import ETH_TYPE_IP
from repro.netsim.packet import (
    IP_PROTO_TCP,
    EthernetFrame,
    IPv4Packet,
    TCPFlags,
    TCPSegment,
)
from repro.workloads.scale import (
    BANK_NET,
    CONVERSATION_TIMEOUT_S,
    ClientBank,
    attach_client_bank,
    run_client_bank,
)


def _warm_testbed(seed=3):
    tb = build_testbed(seed=seed, n_clients=1, cluster_types=("docker",),
                       switch_idle_timeout_s=0.5, memory_idle_timeout_s=2.0)
    svc = tb.register_catalog_service("nginx")
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], svc)
    tb.run(until=tb.sim.now + 60.0)
    assert warm.done and warm.exception is None
    return tb, svc


def _normalize(frame):
    """Everything about a TCP frame except who sent it."""
    seg = frame.payload.payload
    payload = seg.payload
    return (int(seg.flags), seg.seq, seg.ack, seg.payload_bytes,
            bool(seg.last_fragment), type(payload).__name__,
            getattr(payload, "status", None))


def _tap_tcp(device, log):
    """Record every TCP frame the device sends ("tx") or receives ("rx")."""
    original_transmit = device.transmit
    original_on_frame = device.on_frame

    def transmit(port_no, frame):
        if frame.ethertype == ETH_TYPE_IP:
            log.append(("tx",) + _normalize(frame))
        return original_transmit(port_no, frame)

    def on_frame(port_no, frame):
        if frame.ethertype == ETH_TYPE_IP:
            log.append(("rx",) + _normalize(frame))
        return original_on_frame(port_no, frame)

    device.transmit = transmit
    device.on_frame = on_frame


class TestWireFidelity:
    def test_bank_replays_real_host_frame_sequence(self):
        # Reference: a real Host issuing one warm GET.
        tb_ref, svc_ref = _warm_testbed()
        host_log = []
        _tap_tcp(tb_ref.clients[0], host_log)
        proc = tb_ref.client(0).fetch(svc_ref.service_id.addr,
                                      svc_ref.service_id.port)
        tb_ref.run(until=tb_ref.sim.now + 10.0)
        assert proc.done and proc.result.ok

        # Candidate: a one-client bank in an identical testbed.
        tb, svc = _warm_testbed()
        bank = attach_client_bank(tb, svc, n_clients=1, window=1)
        bank_log = []
        _tap_tcp(bank, bank_log)
        result = run_client_bank(tb, bank)
        assert result.ok_count == 1 and result.failed == 0

        # The real host answers the server's stray post-close RST at the
        # stack level (no frame), so it never reaches the HTTP layer; the
        # bank *sees* and ignores it. Frames the client SENDS must match
        # exactly; received frames may include that trailing RST.
        host_tx = [entry for entry in host_log if entry[0] == "tx"]
        bank_tx = [entry for entry in bank_log if entry[0] == "tx"]
        assert bank_tx == host_tx
        host_rx = [entry for entry in host_log if entry[0] == "rx"]
        bank_rx = [entry for entry in bank_log if entry[0] == "rx"]
        assert bank_rx[:len(host_rx)] == host_rx
        assert len(bank_rx) - len(host_rx) <= 1  # at most the stray RST

    def test_bank_latency_matches_real_host(self):
        """Same links, same slow path — the measured latency must agree.

        The bank addresses the gateway MAC directly (a real client resolves
        it once and caches it forever), so pre-seed the reference host's
        ARP cache to compare the post-resolution steady state both model.
        """
        tb_ref, svc_ref = _warm_testbed()
        host = tb_ref.clients[0]
        host.arp_cache[host.gateway] = tb_ref.controller.cfg.vgw_mac
        first = tb_ref.client(0).fetch(svc_ref.service_id.addr,
                                       svc_ref.service_id.port)
        tb_ref.run(until=tb_ref.sim.now + 10.0)
        assert first.done and first.result.ok

        tb, svc = _warm_testbed()
        bank = attach_client_bank(tb, svc, n_clients=1, window=1)
        result = run_client_bank(tb, bank)
        summary = result.summary()
        # Streaming summary of a single sample: mean == that sample.
        assert abs(summary.mean - first.result.time_total) < 1e-4


class TestBankMechanics:
    def test_unique_addresses_and_window(self):
        tb, svc = _warm_testbed()
        bank = attach_client_bank(tb, svc, n_clients=300, window=16)
        assert len({bank.client_ip(i) for i in range(300)}) == 300
        assert len({bank.client_mac(i) for i in range(300)}) == 300
        assert all(int(bank.client_ip(i)) >> (32 - 10) ==
                   int(BANK_NET) >> (32 - 10) for i in range(300))
        result = run_client_bank(tb, bank)
        assert result.ok_count == 300
        assert result.failed == 0
        assert bank.aborted == 0
        # every conversation hit the dispatch slow path (unique client IPs)
        assert tb.controller.stats["service_dispatches"] == 300

    def test_client_base_offsets_address_slices(self):
        """Two banks with disjoint ``client_base`` slices (the sharded
        multi-ingress layout) must not collide on IP or MAC, and the
        offset bank still completes against the same service."""
        tb, svc = _warm_testbed()
        low = attach_client_bank(tb, svc, n_clients=40, window=8,
                                 name="bank-low")
        high = attach_client_bank(tb, svc, n_clients=40, window=8,
                                  client_base=1 << 20, name="bank-high")
        assert high.client_ip(0).value - low.client_ip(0).value == 1 << 20
        ips = {low.client_ip(i) for i in range(40)} \
            | {high.client_ip(i) for i in range(40)}
        macs = {low.client_mac(i) for i in range(40)} \
            | {high.client_mac(i) for i in range(40)}
        assert len(ips) == 80 and len(macs) == 80
        low.start()
        high.start()
        tb.run(until=tb.sim.now + 120.0)
        assert low.done and high.done
        assert low.result.failed == 0 and high.result.failed == 0
        assert low.result.ok_count == 40 and high.result.ok_count == 40

    def test_client_base_rejects_negative(self):
        tb, svc = _warm_testbed()
        with pytest.raises(ValueError, match="client_base"):
            ClientBank(tb.sim, "bad", n_clients=1,
                       service_addr=svc.service_id.addr,
                       service_port=svc.service_id.port,
                       vgw_mac=tb.controller.cfg.vgw_mac, client_base=-1)

    def test_state_is_bounded_by_window_not_clients(self):
        tb, svc = _warm_testbed()
        bank = attach_client_bank(tb, svc, n_clients=200, window=8)
        seen_active = []

        def probe():
            seen_active.append(len(bank._active))
            if not bank.done:
                tb.sim.schedule(0.01, probe)

        tb.sim.schedule(0.0, probe)
        result = run_client_bank(tb, bank)
        assert result.ok_count == 200
        assert max(seen_active) <= 8
        assert len(bank._active) == 0  # all conversations drained

    def test_controller_keeps_nothing_per_finished_client(self):
        """Once one-shot clients finish and every idle timeout has fired,
        FlowMemory, the cookie ledger, pending dispatches, dispatch
        processes, the event heap and the deployment records are back where
        they started at every client count; the learned-host table is the
        one per-client state left (it never ages)."""
        other_hosts = []
        for n_clients in (40, 160):
            tb, svc = _warm_testbed()
            ctrl = tb.controller
            bank = attach_client_bank(tb, svc, n_clients=n_clients, window=16)
            pending = tb.sim.pending_count()
            records = list(tb.engine.records)
            assert run_client_bank(tb, bank).ok_count == n_clients
            # every conversation cancelled its watchdog when it closed, so
            # none waits out its 30 s beyond the bank's last client
            assert tb.sim.pending_count() == pending
            tb.run(until=tb.sim.now + 10.0)  # past the 0.5 s / 2 s idle timeouts
            assert tb.sim.pending_count() == pending
            # every dispatch was a warm reuse: counted, not recorded
            assert tb.engine.records == records
            assert tb.engine.warm_reuses == n_clients
            assert len(ctrl.memory) == 0
            assert ctrl._redirects == {}
            assert ctrl._pending == {}
            assert ctrl._dispatch_procs == {}
            assert {bank.client_ip(i) for i in range(n_clients)} <= ctrl.hosts.keys()
            other_hosts.append(len(ctrl.hosts) - n_clients)
        assert other_hosts[0] == other_hosts[1]

    def test_streaming_result_has_no_timing_list(self):
        tb, svc = _warm_testbed()
        bank = attach_client_bank(tb, svc, n_clients=50, window=8)
        result = run_client_bank(tb, bank)
        assert result.timings == []
        assert result.completed_count == 50
        summary = result.summary()
        assert summary.count == 50
        assert summary.mean > 0

    def test_watchdog_records_failure(self):
        """A conversation that never gets a SYN-ACK times out and is
        counted as failed, and the window refills."""
        tb, svc = _warm_testbed()
        bank = ClientBank(tb.sim, "lonely-bank", n_clients=2,
                          service_addr=svc.service_id.addr,
                          service_port=svc.service_id.port,
                          vgw_mac=tb.controller.cfg.vgw_mac)
        # Deliberately NOT attached to the switch: every SYN goes nowhere.
        t0 = tb.sim.now
        bank.start(spacing_s=0.0)
        tb.run(until=t0 + CONVERSATION_TIMEOUT_S - 1e-6)
        assert bank.aborted == 0  # still waiting, one tick before the timeout
        tb.run(until=t0 + CONVERSATION_TIMEOUT_S)
        assert bank.aborted == 2  # both launched at t0: both time out at t0 + 30 s
        tb.run(until=tb.sim.now + 120.0)
        assert bank.done
        assert bank.result.ok_count == 0
        assert bank.result.failed == 2

    def test_reset_conversation_cancels_its_watchdog(self):
        """A conversation that ends by RST (``_fail``) takes its watchdog
        with it: the event no longer counts as pending and never fires."""
        tb, svc = _warm_testbed()
        bank = ClientBank(tb.sim, "reset-bank", n_clients=1,
                          service_addr=svc.service_id.addr,
                          service_port=svc.service_id.port,
                          vgw_mac=tb.controller.cfg.vgw_mac)
        pending = tb.sim.pending_count()
        bank.start()
        tb.run(until=tb.sim.now + 0.001)  # the SYN left (and went nowhere)
        assert bank.active_count == 1
        assert tb.sim.pending_count() == pending + 1  # the watchdog
        rst = TCPSegment(src_port=svc.service_id.port, dst_port=bank.local_port,
                         flags=TCPFlags.RST | TCPFlags.ACK)
        bank.on_frame(0, EthernetFrame(
            src=tb.controller.cfg.vgw_mac, dst=bank.client_mac(0),
            ethertype=ETH_TYPE_IP,
            payload=IPv4Packet(src=svc.service_id.addr, dst=bank.client_ip(0),
                               proto=IP_PROTO_TCP, payload=rst)))
        assert bank.done
        assert bank.result.failed == 1
        assert tb.sim.pending_count() == pending
        tb.run(until=tb.sim.now + 2 * CONVERSATION_TIMEOUT_S)
        assert bank.aborted == 0
        assert bank.result.failed == 1

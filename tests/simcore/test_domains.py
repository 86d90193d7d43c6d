"""Kernel-level tests for :mod:`repro.simcore.domains`: envelope codec,
partition validation, gateway capture/injection semantics, and the
serial-vs-process byte-identity of conservative lockstep on a toy
partition (the experiment-level identity lives in tests/experiments)."""

from __future__ import annotations

import pytest

from repro.netsim.addresses import ip, mac
from repro.netsim.device import Device
from repro.netsim.packet import ETH_TYPE_IP, IP_PROTO_TCP, EthernetFrame, IPv4Packet, TCPSegment
from repro.netsim.topology import Network
from repro.simcore import Simulator, TraceLog
from repro.simcore.domains import (
    CausalityError,
    DomainGateway,
    DomainOutcome,
    DomainPartition,
    DomainSpec,
    DomainWorkerError,
    Envelope,
    EnvelopeCodecError,
    LockstepCoordinator,
    LockstepOutcome,
    LockstepStallError,
    PartitionError,
    ProcessExecutor,
    active_domain_workers,
    decode_envelopes,
    derive_domain_seed,
    domain_workers,
    encode_envelopes,
    envelope_order,
)
from repro.metrics.perf import PerfCounters

LOOKAHEAD = 0.01


def _frame(src_domain: int, dst_domain: int, index: int) -> EthernetFrame:
    """A toy TCP frame addressed ``10.0.<src>.1 -> 10.0.<dst>.1``."""
    seg = TCPSegment(src_port=1000 + index, dst_port=80, seq=0, ack=0, flags=0)
    packet = IPv4Packet(src=ip(f"10.0.{src_domain}.1"),
                        dst=ip(f"10.0.{dst_domain}.1"),
                        proto=IP_PROTO_TCP, payload=seg)
    return EthernetFrame(src=mac(f"02:00:00:00:{src_domain:02x}:01"),
                         dst=mac(f"02:00:00:00:{dst_domain:02x}:01"),
                         ethertype=ETH_TYPE_IP, payload=packet)


def _classify(frame: EthernetFrame):
    packet = frame.ipv4
    if packet is None:
        return None
    return (packet.dst.value >> 8) & 0xFF


class _Sink(Device):
    """Counts and renders every frame the gateway delivers inbound."""

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.received: list = []

    def on_frame(self, port_no: int, frame: EthernetFrame) -> None:
        self.received.append((round(self.sim.now, 9), frame.describe()))


class PingModel:
    """Toy domain: fires ``n_pings`` frames at the next domain in the
    ring, records every frame that arrives back through the gateway."""

    def __init__(self, domain_id: int, n_domains: int, seed: int,
                 n_pings: int = 3) -> None:
        self.domain_id = domain_id
        self.n_pings = n_pings
        self.seed = seed
        net = Network(seed=seed, trace=TraceLog(enabled=True))
        self.net = net
        self._gateway = DomainGateway(
            net.sim, f"gw-{domain_id}", domain_id, _classify, LOOKAHEAD,
            mac_addr=net.alloc_mac())
        self.sink = _Sink(net.sim, f"sink-{domain_id}")
        net.connect(self._gateway, 0, self.sink, 0, latency_s=0.001)
        self.sent = 0
        peer = (domain_id + 1) % n_domains
        for index in range(n_pings):
            net.sim.schedule(0.003 * index + 0.001, self._send, peer, index)

    def _send(self, peer: int, index: int) -> None:
        self.sent += 1
        self._gateway.on_frame(0, _frame(self.domain_id, peer, index))

    @property
    def sim(self) -> Simulator:
        return self.net.sim

    @property
    def gateway(self) -> DomainGateway:
        return self._gateway

    def done(self) -> bool:
        return self.sent >= self.n_pings

    def finalize(self) -> dict:
        return {"domain": self.domain_id, "seed": self.seed,
                "sent": self.sent, "received": list(self.sink.received)}


def build_ping(domain_id: int, n_domains: int, seed: int,
               n_pings: int = 3) -> PingModel:
    return PingModel(domain_id, n_domains, seed, n_pings)


def build_broken(domain_id: int, n_domains: int, seed: int) -> PingModel:
    raise RuntimeError(f"builder exploded for domain {domain_id}")


def _ping_partition(n_domains: int = 3, n_pings: int = 3) -> DomainPartition:
    return DomainPartition.per_ingress(
        build_ping, n_domains=n_domains, root_seed=7,
        lookahead_s=LOOKAHEAD, common_kwargs={"n_pings": n_pings})


# ------------------------------------------------------------------ codec


def test_envelope_codec_roundtrip():
    envelopes = [
        Envelope(src_domain=0, dst_domain=1, seq=i, sent_at=0.001 * i,
                 arrival_at=0.001 * i + LOOKAHEAD, frame=_frame(0, 1, i))
        for i in range(4)
    ]
    blob = encode_envelopes(envelopes)
    decoded = decode_envelopes(blob)
    assert decoded == envelopes


def test_envelope_codec_rejects_bad_magic():
    with pytest.raises(EnvelopeCodecError, match="magic"):
        decode_envelopes(b"NOPE" + b"garbage")


def test_envelope_codec_rejects_non_envelope_payload():
    import pickle

    blob = b"RDE1" + pickle.dumps(["not", "envelopes"])
    with pytest.raises(EnvelopeCodecError, match="did not decode"):
        decode_envelopes(blob)


def test_envelope_order_is_total_over_distinct_sources():
    a = Envelope(src_domain=0, dst_domain=1, seq=1, sent_at=0.0,
                 arrival_at=0.01, frame=_frame(0, 1, 0))
    b = Envelope(src_domain=1, dst_domain=0, seq=1, sent_at=0.0,
                 arrival_at=0.01, frame=_frame(1, 0, 0))
    assert envelope_order(a) < envelope_order(b)


# -------------------------------------------------------------- partition


def test_partition_validates_contiguous_ids():
    spec = DomainSpec(domain_id=1, name="d1", builder=build_ping, seed=1)
    with pytest.raises(PartitionError, match="contiguous"):
        DomainPartition(specs=(spec,), lookahead_s=LOOKAHEAD)


def test_partition_rejects_duplicate_names():
    specs = (DomainSpec(domain_id=0, name="dup", builder=build_ping, seed=1),
             DomainSpec(domain_id=1, name="dup", builder=build_ping, seed=2))
    with pytest.raises(PartitionError, match="duplicate"):
        DomainPartition(specs=specs, lookahead_s=LOOKAHEAD)


def test_partition_rejects_nonpositive_lookahead():
    spec = DomainSpec(domain_id=0, name="d0", builder=build_ping, seed=1)
    with pytest.raises(PartitionError, match="lookahead"):
        DomainPartition(specs=(spec,), lookahead_s=0.0)


def test_partition_rejects_empty():
    with pytest.raises(PartitionError, match="at least one"):
        DomainPartition(specs=(), lookahead_s=LOOKAHEAD)


def test_derive_domain_seed_is_stable_and_distinct():
    seeds = [derive_domain_seed(2019, d) for d in range(8)]
    assert len(set(seeds)) == 8
    assert seeds == [derive_domain_seed(2019, d) for d in range(8)]
    assert derive_domain_seed(2019, 0) != derive_domain_seed(2020, 0)


# ---------------------------------------------------------------- gateway


def test_gateway_rejects_nonpositive_latency():
    sim = Simulator()
    with pytest.raises(ValueError, match="positive"):
        DomainGateway(sim, "gw", 0, _classify, 0.0,
                      mac_addr=mac("02:00:00:00:00:01"))


def test_gateway_captures_and_orders_envelopes():
    sim = Simulator()
    gw = DomainGateway(sim, "gw", 0, _classify, LOOKAHEAD,
                       mac_addr=mac("02:00:00:00:00:01"))
    gw.on_frame(0, _frame(0, 1, 0))
    gw.on_frame(0, _frame(0, 2, 1))
    out = gw.drain()
    assert [e.dst_domain for e in out] == [1, 2]
    assert [e.seq for e in out] == [1, 2]
    assert all(e.arrival_at == e.sent_at + LOOKAHEAD for e in out)
    assert gw.drain() == []  # drain clears
    assert gw.envelopes_captured == 2


def test_gateway_drops_unroutable_with_trace():
    trace = TraceLog(enabled=True)
    sim = Simulator(trace=trace)
    gw = DomainGateway(sim, "gw", 0, lambda frame: None, LOOKAHEAD,
                       mac_addr=mac("02:00:00:00:00:01"))
    gw.on_frame(0, _frame(0, 1, 0))
    assert gw.frames_unroutable == 1
    assert gw.drain() == []
    assert trace.events("domain") == ["gw-unroutable"]


def test_gateway_inject_raises_on_past_arrival():
    sim = Simulator()
    sim.run(until=1.0)
    gw = DomainGateway(sim, "gw", 0, _classify, LOOKAHEAD,
                       mac_addr=mac("02:00:00:00:00:01"))
    stale = Envelope(src_domain=1, dst_domain=0, seq=1, sent_at=0.1,
                     arrival_at=0.5, frame=_frame(1, 0, 0))
    with pytest.raises(CausalityError, match="lookahead contract"):
        gw.inject(stale)


def test_gateway_inject_delivers_at_arrival_time():
    net = Network(seed=1)
    gw = DomainGateway(net.sim, "gw", 0, _classify, LOOKAHEAD,
                       mac_addr=net.alloc_mac())
    sink = _Sink(net.sim, "sink")
    net.connect(gw, 0, sink, 0, latency_s=0.001)
    env = Envelope(src_domain=1, dst_domain=0, seq=1, sent_at=0.0,
                   arrival_at=LOOKAHEAD, frame=_frame(1, 0, 0))
    gw.inject(env)
    net.sim.run(until=1.0)
    assert gw.envelopes_injected == 1
    # delivered through the gateway at arrival_at, plus the local link hop
    # (propagation + a sub-microsecond serialization delay)
    assert sink.received
    assert sink.received[0][0] == pytest.approx(LOOKAHEAD + 0.001, abs=1e-5)
    assert sink.received[0][0] >= LOOKAHEAD + 0.001


# ---------------------------------------------------------------- lockstep


def _outcome_digest(outcome: LockstepOutcome):
    return ([o.result for o in outcome.outcomes],
            [o.events_executed for o in outcome.outcomes],
            [(o.envelopes_in, o.envelopes_out) for o in outcome.outcomes],
            outcome.epochs, outcome.envelopes_exchanged,
            outcome.merged_trace_dump())


def test_lockstep_serial_completes_ring():
    outcome = LockstepCoordinator(_ping_partition(), processes=1).run()
    assert outcome.n_domains == 3
    for domain in outcome.outcomes:
        assert domain.result["sent"] == 3
        # every ping the previous domain sent arrived here
        assert len(domain.result["received"]) == 3
        assert domain.envelopes_in == 3 and domain.envelopes_out == 3
    assert outcome.envelopes_exchanged == 9
    assert outcome.total_events > 0
    assert isinstance(outcome.total_perf, PerfCounters)


def test_lockstep_process_identical_to_serial():
    serial = LockstepCoordinator(_ping_partition(), processes=1).run()
    procs = LockstepCoordinator(_ping_partition(), processes=2).run()
    procs3 = LockstepCoordinator(_ping_partition(), processes=3).run()
    assert _outcome_digest(serial) == _outcome_digest(procs)
    assert _outcome_digest(serial) == _outcome_digest(procs3)


def test_lockstep_excess_processes_clamped():
    executor = ProcessExecutor(_ping_partition(n_domains=2), processes=16)
    assert executor.processes == 2


def test_lockstep_stall_guard():
    with pytest.raises(LockstepStallError, match="still running"):
        LockstepCoordinator(_ping_partition(n_pings=5), processes=1,
                            max_epochs=1).run()


def test_lockstep_worker_failure_surfaces_traceback():
    partition = DomainPartition.per_ingress(
        build_broken, n_domains=2, root_seed=1, lookahead_s=LOOKAHEAD)
    with pytest.raises(DomainWorkerError, match="builder exploded"):
        LockstepCoordinator(partition, processes=2).run()


def test_merged_trace_labels_records_with_their_domain():
    # Regression: the merged-trace streams must bind each outcome, not
    # close over the loop variable (which labeled everything d<last>).
    from repro.simcore.trace import TraceRecord

    outcome = LockstepOutcome(
        outcomes=[
            DomainOutcome(domain_id=0, name="d0", result={}, now=1.0,
                          events_executed=0, perf=PerfCounters(),
                          trace_records=[TraceRecord(0.5, "t", "zero")]),
            DomainOutcome(domain_id=1, name="d1", result={}, now=1.0,
                          events_executed=0, perf=PerfCounters(),
                          trace_records=[TraceRecord(0.25, "t", "one")]),
        ],
        epochs=1, envelopes_exchanged=0, lookahead_s=LOOKAHEAD)
    dump = outcome.merged_trace_dump().splitlines()
    assert dump[0].startswith("d1 ") and "one" in dump[0]
    assert dump[1].startswith("d0 ") and "zero" in dump[1]


# ------------------------------------------------------------------ context


def test_domain_workers_context():
    assert active_domain_workers() == 1
    with domain_workers(4) as n:
        assert n == 4
        assert active_domain_workers() == 4
        with domain_workers(0):  # clamped to at least 1
            assert active_domain_workers() == 1
        assert active_domain_workers() == 4
    assert active_domain_workers() == 1

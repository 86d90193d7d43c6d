"""Metric names, units and directions, and how each is computed.

``END_TO_END`` and ``per_layer_specs()`` are the single source of the names
in ``BENCHMARK.json`` (``ledger/tests`` checks the file against them).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ledger.layers import LAYERS
from ledger.tracer import ROOT, layer_of

Metric = Dict[str, Any]  # {"value": number, "unit": str}

#: (name, unit, better, bound) — bound is the share of the parent's median a
#: metric may worsen by; see README "Bounds" for where each came from
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("conv_per_s", "1/s", "higher", 0.25),
    ("kcalls_per_conv", "kcalls", "lower", 0.04),
    ("retained_blocks_per_conv", "blocks", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

#: metrics beyond calls/self time/share, per layer: (suffix, unit, better)
EXTRA: Dict[str, List[Tuple[str, str, str]]] = {
    "simcore.loop": [("events_per_conv", "count", "lower"),
                     ("schedules_per_conv", "count", "lower"),
                     ("cancelled_share", "ratio", "lower"),
                     ("self_us_per_event", "us", "lower")],
    "netsim.link": [("transmits_per_conv", "count", "lower")],
    "openflow.switch": [("frames_per_conv", "count", "lower"),
                        ("wall_us_per_frame", "us", "lower"),
                        ("microflow_hit_pct", "%", "higher"),
                        ("microflow_evictions_per_conv", "count", "lower"),
                        ("microflow_flushes", "count", "lower"),
                        ("packet_in_share", "ratio", "lower")],
    "openflow.flowtable": [("lookups_per_conv", "count", "lower"),
                           ("installs_per_conv", "count", "lower"),
                           ("removals_per_conv", "count", "lower")],
    "openflow.channel": [("msgs_per_conv", "count", "lower")],
    "core.controller": [("packet_ins_per_conv", "count", "lower"),
                        ("us_per_packet_in", "us", "lower"),
                        ("plan_hit_pct", "%", "higher"),
                        ("memo_revalidations", "count", "lower"),
                        ("memo_invalidations", "count", "lower")],
    "core.registry": [("lookups_per_conv", "count", "lower"),
                      ("us_per_lookup", "us", "lower"),
                      ("mutations_per_conv", "count", "lower"),
                      ("us_per_mutation", "us", "lower")],
    "core.dispatcher": [("dispatches_per_conv", "count", "lower")],
    "core.deployment": [("cold_deployments", "count", "lower"),
                        ("us_per_deployment", "us", "lower")],
    "simcore.domains": [("epochs", "count", "lower"),
                        ("envelopes", "count", "lower"),
                        ("codec_us_per_envelope", "us", "lower"),
                        ("advance_us_per_epoch", "us", "lower"),
                        ("serial_conv_per_s", "1/s", "higher"),
                        ("speedup_vs_serial", "ratio", "higher")],
}

TRACE_METRICS: List[Tuple[str, str, str]] = [
    ("trace.overhead_pct", "%", "lower"),
    ("trace.other_share", "ratio", "lower"),
    ("runtime.gc_collections", "count", "lower"),
]


def per_layer_specs() -> List[Tuple[str, str, str]]:
    specs: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        specs += [(f"{layer}.calls_per_conv", "count", "lower"),
                  (f"{layer}.self_us_per_conv", "us", "lower"),
                  (f"{layer}.self_share", "ratio", "lower")]
        specs += [(f"{layer}.{suffix}", unit, better)
                  for suffix, unit, better in EXTRA.get(layer, [])]
    return specs + TRACE_METRICS


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(conv: int, walls_s: List[float], calls: int, retained: float,
               peak_rss_mb: float, setup_s: float) -> Dict[str, Metric]:
    values = {
        "conv_per_s": conv / min(walls_s),
        "kcalls_per_conv": calls / 1000.0 / conv,
        "retained_blocks_per_conv": retained / conv,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in END_TO_END}


def _lockstep(conv: int, baseline_wall_s: float, workers: Any) -> Dict[str, float]:
    """What the run on lockstep worker processes adds to ``simcore.domains``
    (``workers`` is its :class:`~ledger.measure.Rep`; the baseline is serial)."""
    spans, row = workers.spans, workers.outcome.row
    codec_ns = sum(spans.get(f"simcore.domains:{function}", {}).get("incl_ns", 0)
                   for function in ("encode_envelopes", "decode_envelopes"))
    # one core: the coordinator falls back to the serial executor
    advance = spans.get("simcore.domains:ProcessExecutor.advance",
                        spans.get("simcore.domains:SerialExecutor.advance"))
    return {
        "simcore.domains.codec_us_per_envelope": _ratio(codec_ns / 1000.0, row["envelopes"]),
        "simcore.domains.advance_us_per_epoch": advance["incl_ns"] / 1000.0 / row["epochs"],
        "simcore.domains.serial_conv_per_s": conv / baseline_wall_s,
        "simcore.domains.speedup_vs_serial": baseline_wall_s / workers.wall_s,
    }


def per_layer(conv: int, traced: Any, baseline_wall_s: float,
              workers: Any = None) -> Dict[str, Metric]:
    """Every per-layer metric of one traced repetition.

    ``traced`` is the traced :class:`~ledger.measure.Rep` (tracer tables,
    public-counter deltas, outcome); ``baseline_wall_s`` the fastest untraced
    repetition; ``workers`` the lockstep run on worker processes, where the
    workload has one (its four metrics are 0 elsewhere).
    """
    spans = traced.spans
    wall_ns = spans[ROOT]["incl_ns"]
    layers: Dict[str, Dict[str, int]] = {}
    for name, stats in spans.items():
        into = layers.setdefault(layer_of(name), {"calls": 0, "self_ns": 0})
        into["calls"] += stats["calls"]
        into["self_ns"] += stats["self_ns"]

    def calls(*names: str) -> int:
        return sum(spans.get(name, {}).get("calls", 0) for name in names)

    def incl_us(*names: str) -> float:
        return sum(spans.get(name, {}).get("incl_ns", 0) for name in names) / 1000.0

    def self_us(layer: str) -> float:
        return layers.get(layer, {}).get("self_ns", 0) / 1000.0

    perf = traced.perf
    frames = calls("openflow.switch:OpenFlowSwitch.on_frame")
    packet_ins = calls("core.controller:TransparentEdgeController.on_packet_in")
    lookups = ("core.registry:ServiceRegistry.lookup_prefix",
               "core.registry:ServiceRegistry.generation_of")
    mutations = ("core.registry:ServiceRegistry.register_service",
                 "core.registry:ServiceRegistry.deregister")
    plan_hits = traced.controller.get("slow_path_plan_hits", 0)
    plan_misses = traced.controller.get("slow_path_plan_misses", 0)
    cold = calls("core.deployment:DockerCluster.create")
    schedules = calls("simcore.loop:Simulator.schedule")

    extra = {
        "simcore.loop.events_per_conv": perf.events_executed / conv,
        "simcore.loop.schedules_per_conv": schedules / conv,
        "simcore.loop.cancelled_share":
            _ratio(calls("simcore.loop:EventHandle.cancel"), schedules),
        "simcore.loop.self_us_per_event":
            _ratio(self_us("simcore.loop"), perf.events_executed),
        "netsim.link.transmits_per_conv": calls("netsim.link:Device.transmit") / conv,
        "openflow.switch.frames_per_conv": frames / conv,
        "openflow.switch.wall_us_per_frame": _ratio(baseline_wall_s * 1e6, frames),
        "openflow.switch.microflow_hit_pct": 100.0 * perf.microflow_hit_rate,
        "openflow.switch.microflow_evictions_per_conv": perf.microflow_evictions / conv,
        "openflow.switch.microflow_flushes": perf.microflow_flushes,
        "openflow.switch.packet_in_share": _ratio(packet_ins, frames),
        "openflow.flowtable.lookups_per_conv": perf.flow_lookups / conv,
        "openflow.flowtable.installs_per_conv":
            calls("openflow.flowtable:FlowTable.install") / conv,
        "openflow.flowtable.removals_per_conv":
            calls("openflow.flowtable:FlowTable._remove_entry") / conv,
        "openflow.channel.msgs_per_conv":
            calls("openflow.channel:ControlChannel.to_controller",
                  "openflow.channel:ControlChannel.to_switch") / conv,
        "core.controller.packet_ins_per_conv": packet_ins / conv,
        "core.controller.us_per_packet_in": _ratio(
            incl_us("core.controller:TransparentEdgeController.on_packet_in"), packet_ins),
        "core.controller.plan_hit_pct": 100.0 * _ratio(plan_hits, plan_hits + plan_misses),
        "core.controller.memo_revalidations": perf.memo_revalidations,
        "core.controller.memo_invalidations": perf.memo_invalidations,
        "core.registry.lookups_per_conv": calls(*lookups) / conv,
        "core.registry.us_per_lookup": _ratio(incl_us(*lookups), calls(*lookups)),
        "core.registry.mutations_per_conv": calls(*mutations) / conv,
        "core.registry.us_per_mutation": _ratio(incl_us(*mutations), calls(*mutations)),
        "core.dispatcher.dispatches_per_conv":
            calls("core.dispatcher:Dispatcher.dispatch") / conv,
        "core.deployment.cold_deployments": cold,
        # deployment work is core.deployment plus edge minus request serving
        "core.deployment.us_per_deployment": _ratio(
            self_us("core.deployment") + sum(
                stats["self_ns"] / 1000.0 for name, stats in spans.items()
                if layer_of(name) == "edge" and "InstanceHandler" not in name), cold),
        "simcore.domains.epochs": traced.outcome.row.get("epochs", 0),
        "simcore.domains.envelopes": traced.outcome.row.get("envelopes", 0),
        "simcore.domains.codec_us_per_envelope": 0.0,
        "simcore.domains.advance_us_per_epoch": 0.0,
        "simcore.domains.serial_conv_per_s": 0.0,
        "simcore.domains.speedup_vs_serial": 0.0,
        "trace.overhead_pct": 100.0 * (wall_ns / 1e9 / baseline_wall_s - 1.0),
        "trace.other_share":
            (spans[ROOT]["self_ns"] + layers.get("other", {}).get("self_ns", 0)) / wall_ns,
        "runtime.gc_collections": traced.gc_collections,
    }
    if workers is not None:
        extra.update(_lockstep(conv, baseline_wall_s, workers))

    out: Dict[str, Metric] = {}
    for name, unit, _ in per_layer_specs():
        if name in extra:
            value: float = extra[name]
        else:
            layer, _, kind = name.rpartition(".")
            stats_of = layers.get(layer, {"calls": 0, "self_ns": 0})
            value = {"calls_per_conv": stats_of["calls"] / conv,
                     "self_us_per_conv": stats_of["self_ns"] / 1000.0 / conv,
                     "self_share": stats_of["self_ns"] / wall_ns}[kind]
        out[name] = {"value": value, "unit": unit}
    return out


def benchmark_json(run_seconds: int, why: Dict[str, str]) -> Dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "ledger"],
        "paths": ["ledger"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": text} for name, text in why.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in per_layer_specs()],
    }

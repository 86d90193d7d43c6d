"""The layers of the stack: which calls the traced run wraps, and under
which layer name.

Layers are module names. ``ENTRY_POINTS`` lists the public (and the few
callback) entry points of each; everything else that runs — a closure put on
the event loop, a process's generator body — is attributed by ``MODULE_LAYER``
to the layer of the module that defines it.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ledger.tracer import Tracer

#: (layer, module, class or None for module-level functions, attributes)
ENTRY_POINTS: List[Tuple[str, str, Optional[str], Sequence[str]]] = [
    ("simcore.loop", "repro.simcore.loop", "Simulator", ["run"]),  # .schedule: install()
    ("simcore.loop", "repro.simcore.loop", "EventHandle", ["cancel"]),
    ("simcore.process", "repro.simcore.process", "Process", ["_resume"]),  # steps: install()
    ("simcore.process", "repro.simcore.process", "Timeout", ["_expire"]),
    ("simcore.process", "repro.simcore.signal", "Signal", ["_fire"]),
    # Device.transmit is the one caller of Link.transmit: one span for both.
    ("netsim.link", "repro.netsim.device", "Device", ["transmit"]),
    ("netsim.link", "repro.netsim.link", "Link", ["_deliver"]),
    ("netsim.host", "repro.netsim.host", "Host",
     ["on_frame", "connect", "send_ip", "_arp_retry"]),
    ("netsim.host", "repro.netsim.host", "Connection",
     ["send", "request", "close", "_syn_retransmit"]),
    ("workloads", "repro.experiments.topologies", None, ["build_testbed"]),
    ("workloads", "repro.experiments.topologies", "Testbed", ["register_catalog_service"]),
    ("workloads", "repro.experiments.domains", "IngressDomainModel", ["__init__"]),
    ("workloads", "repro.workloads.scale", "ClientBank",
     ["on_frame", "_launch_next", "_watchdog"]),
    ("workloads", "repro.workloads.loadgen", "ClosedLoopGenerator", ["start"]),
    ("workloads", "repro.workloads.clients", "TimedHTTPClient", ["fetch"]),
    ("openflow.switch", "repro.openflow.switch", "OpenFlowSwitch",
     ["on_frame", "on_controller_message"]),
    ("openflow.flowtable", "repro.openflow.flowtable", "FlowTable",
     ["lookup", "install", "delete", "_idle_check", "_remove_entry"]),
    ("openflow.actions", "repro.openflow.actions", None,
     ["apply_actions", "apply_actions_multi"]),
    ("openflow.channel", "repro.openflow.channel", "ControlChannel",
     ["to_controller", "to_switch", "_deliver_up", "_deliver_down"]),
    ("ryuapp", "repro.ryuapp.manager", "AppManager",
     ["on_switch_message", "_pump"]),
    ("ryuapp", "repro.ryuapp.datapath", "Datapath", ["send_msg"]),
    ("core.controller", "repro.core.controller", "TransparentEdgeController",
     ["on_packet_in", "on_flow_removed", "on_state_change", "service_decision",
      "_on_memory_idle"]),
    ("core.registry", "repro.core.registry", "ServiceRegistry",
     ["lookup_prefix", "generation_of", "register_service", "deregister"]),
    ("core.dispatcher", "repro.core.dispatcher", "Dispatcher",
     ["dispatch", "note_flow_installed", "note_flow_removed"]),
    ("core.dispatcher", "repro.core.scheduler", "ProximityScheduler", ["schedule"]),
    ("core.flowmemory", "repro.core.flowmemory", "FlowMemory",
     ["lookup", "remember", "forget", "_idle_check"]),
    ("core.deployment", "repro.core.deployment", "DeploymentEngine", ["ensure_available"]),
    ("core.deployment", "repro.edge.cluster", "EdgeCluster", ["wait_ready"]),
    ("core.deployment", "repro.edge.cluster", "DockerCluster", ["create", "scale_up"]),
    ("edge", "repro.edge.services", "InstanceHandler", ["handle"]),
    ("simcore.domains", "repro.simcore.domains.lockstep", "LockstepCoordinator", ["run"]),
    ("simcore.domains", "repro.simcore.domains.lockstep", "SerialExecutor",
     ["build", "advance", "finalize"]),
    ("simcore.domains", "repro.simcore.domains.lockstep", "ProcessExecutor",
     ["build", "advance", "finalize"]),
    ("simcore.domains", "repro.simcore.domains.envelope", None,
     ["encode_envelopes", "decode_envelopes"]),
    ("simcore.domains", "repro.simcore.domains.gateway", "DomainGateway",
     ["on_frame", "drain", "inject", "_deliver_inbound"]),
]

#: the layers every traced run reports, in stack order
LAYERS: List[str] = list(dict.fromkeys(entry[0] for entry in ENTRY_POINTS))

#: longest dotted prefix wins; what no prefix covers is layer "other"
MODULE_LAYER: Dict[str, str] = {
    "ledger": "workloads",  # the churn tick and the drivers' own closures
    "repro.simcore": "simcore.loop",
    "repro.simcore.process": "simcore.process",
    "repro.simcore.signal": "simcore.process",
    "repro.simcore.domains": "simcore.domains",
    "repro.netsim": "netsim.host",
    "repro.netsim.link": "netsim.link",
    "repro.workloads": "workloads",
    "repro.experiments": "workloads",
    "repro.openflow": "openflow.switch",
    "repro.openflow.flowtable": "openflow.flowtable",
    "repro.openflow.actions": "openflow.actions",
    "repro.openflow.channel": "openflow.channel",
    "repro.ryuapp": "ryuapp",
    "repro.core": "core.controller",
    "repro.core.registry": "core.registry",
    "repro.core.trie": "core.registry",
    "repro.core.revalidation": "core.registry",
    "repro.core.dispatcher": "core.dispatcher",
    "repro.core.scheduler": "core.dispatcher",
    "repro.core.flowmemory": "core.flowmemory",
    "repro.core.deployment": "core.deployment",
    "repro.edge": "edge",
}


def layer_of_module(module: str) -> str:
    while module:
        layer = MODULE_LAYER.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return "other"


def layer_of_code(code: Any) -> str:
    """Layer of a code object, from the file that defines it."""
    parts = code.co_filename.replace("\\", "/").removesuffix(".py").split("/")
    for package in ("repro", "ledger"):
        if package in parts:
            start = len(parts) - 1 - parts[::-1].index(package)
            return layer_of_module(".".join(parts[start:]))
    return "other"


def install(tracer: Tracer, only: Optional[str] = None) -> None:
    """Patch every entry point (of layer ``only``, when given) and the two
    kernel hooks that name the un-named: callbacks put on the loop, and
    process steps (charged to the module that defines the generator; the
    ``Process`` bookkeeping around the body, ~0.3 us a step, rides along).
    Call before the testbed is built — objects bind callbacks as they go."""
    for layer, module_name, class_name, attrs in ENTRY_POINTS:
        if only is not None and layer != only:
            continue
        module = importlib.import_module(module_name)
        for attr in attrs:
            if class_name is None:
                tracer.patch_function(getattr(module, attr), layer, package="repro")
            else:
                tracer.patch(getattr(module, class_name), attr, layer)
    if only is not None:
        return

    from repro.simcore.loop import Simulator
    from repro.simcore.process import Process

    wrap_callback = tracer.wrap_callback

    def name_callback(args: tuple) -> Tuple[None, tuple]:
        # (sim, delay, callback, *callback_args)
        callback = args[2]
        named = wrap_callback(callback)
        if named is callback:
            return None, args
        return None, args[:2] + (named,) + args[3:]

    tracer.patch(Simulator, "schedule", "simcore.loop", adapt=name_callback)

    index_for_code = tracer.index_for_code

    def name_step(args: tuple) -> Tuple[int, tuple]:
        # (process, value): the step is the generator body's, not the kernel's
        return index_for_code(args[0]._gen), args

    for step in ("_step_send", "_step_throw"):
        tracer.patch(Process, step, "simcore.process", adapt=name_step)

"""The names the performance ledger reaches into ``src/`` for still exist.

``ledger/layers.py`` patches entry points by ``vars(owner)[attr]`` and names
their spans by ``__qualname__``; ``ledger/metrics.py`` reads
``PerfCounters`` fields and controller ``stats`` keys by name. A refactor
that renames any of them silently zeroes a ledger metric — this makes it
fail tier-1 instead.
"""

import importlib

from repro.experiments import build_testbed
from repro.metrics.perf import PERF

from ledger.layers import ENTRY_POINTS


def test_every_ledger_entry_point_resolves():
    for _layer, module_name, class_name, attrs in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        for attr in attrs:
            # defined on the owner itself: the tracer patches vars(owner)
            raw = vars(owner)[attr]
            func = getattr(raw, "__func__", raw)
            assert callable(func), (module_name, class_name, attr)
            qualname = attr if class_name is None else f"{class_name}.{attr}"
            assert func.__qualname__ == qualname


def test_counters_the_ledger_reads_exist():
    for name in ("events_executed", "flow_lookups", "microflow_hit_rate",
                 "microflow_evictions", "microflow_flushes",
                 "memo_revalidations", "memo_invalidations"):
        assert isinstance(getattr(PERF, name), (int, float)), name
    tb = build_testbed(seed=1, n_clients=1, cluster_types=("docker",))
    assert tb.controller.stats["service_dispatches"] == 0

"""One workload, measured: timed repetitions, a counted run, a traced run.

This is what a child interpreter does (``python -m ledger --workload ...``).
Every repetition builds a fresh testbed from the same seed, collects garbage
before the timed region and leaves the collector enabled inside it.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, List, Optional

from repro.metrics import perf
from repro.metrics.perf import PerfCounters
from repro.verify import verify_testbed

from ledger import layers, metrics
from ledger.tracer import ROOT, Tracer
from ledger.workloads import DEFAULT_SEED, WORKLOADS, Outcome

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(LEDGER_DIR)
GOLDEN_PATH = os.path.join(LEDGER_DIR, "golden.json")

#: fewest timed repetitions of a full-size run, however short ``--seconds``
MIN_REPS = 3
#: child interpreters started to time "interpreter start + import"
STARTUP_PROBES = 3
#: raw spans kept by ``--trace-out``: the first this-many kernel events
RAW_SPAN_EVENTS = 2000
EVENT_LOOP_SPAN = "simcore.loop:Simulator.run"


@dataclass
class Rep:
    """One repetition: set-up, the timed region, what it produced."""

    setup_s: float
    wall_s: float
    outcome: Outcome
    #: ``sys.getallocatedblocks()`` growth across the region, after a collect
    retained_blocks: int
    perf: PerfCounters
    gc_collections: int
    #: growth of the testbeds' ``controller.stats`` across the region
    controller: Dict[str, int]
    violations: List[str]
    #: tracer tables (traced repetitions only)
    spans: Dict[str, Dict[str, int]] = field(default_factory=dict)


class _Counted:
    """Region wrapper for the counted run: every Python and C call."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile(builtins=True)
        self.calls = 0

    def __enter__(self) -> None:
        self.profile.enable()

    def __exit__(self, *exc_info: Any) -> None:
        self.profile.disable()
        self.calls = sum(entry.callcount for entry in self.profile.getstats())


class _Traced:
    """Region wrapper for the traced run: the tracer's root span."""

    def __init__(self, tracer: Tracer, record_raw: bool) -> None:
        self.tracer = tracer
        self.record_raw = record_raw
        self.spans: Dict[str, Dict[str, int]] = {}

    def __enter__(self) -> None:
        self.tracer.begin()
        if self.record_raw:
            self.tracer.record_spans(RAW_SPAN_EVENTS, under=EVENT_LOOP_SPAN)

    def __exit__(self, *exc_info: Any) -> None:
        self.tracer.end()
        # Now, not later: the quiesce after the region runs wrapped code too.
        self.spans = self.tracer.by_span()


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _controller_stats(testbeds: List[Any]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for tb in testbeds:
        for key, value in tb.controller.stats.items():
            total[key] = total.get(key, 0) + value
    return total


def run_rep(name: str, seed: int, smoke: bool, workers: int,
            region: ContextManager[Any] = nullcontext(), verify: bool = False) -> Rep:
    """One repetition; ``verify`` adds the data-plane proof after it (seconds
    on a 20 000-service registry, so once per child, not once per repetition)."""
    gc.collect()
    start = time.perf_counter()
    prepared = WORKLOADS[name](seed, smoke, workers)
    setup_s = time.perf_counter() - start
    gc.collect()
    stats_before = _controller_stats(prepared.testbeds)
    collections = _gc_collections()
    counters = perf.snapshot()
    blocks = sys.getallocatedblocks()
    start = time.perf_counter()
    with region:
        prepared.run()
    wall_s = time.perf_counter() - start
    counters = perf.delta(counters)
    collections = _gc_collections() - collections
    gc.collect()
    blocks = sys.getallocatedblocks() - blocks
    outcome = prepared.outcome()
    stats_after = _controller_stats(prepared.testbeds)
    controller = {key: value - stats_before.get(key, 0)
                  for key, value in stats_after.items()}
    # Outside the timed region: let flows idle out, then prove V1-V5.
    violations: List[str] = []
    for tb in prepared.testbeds if verify else ():
        tb.run(until=tb.sim.now + 10.0)
        violations += [str(v) for v in verify_testbed(tb).violations]
    return Rep(setup_s, wall_s, outcome, blocks, counters, collections,
               controller, violations)


def run_traced(name: str, seed: int, smoke: bool, workers: int,
               only: Optional[str] = None, trace_out: Optional[str] = None) -> Rep:
    """A repetition under the wrapper tracer (patches undone on return)."""
    with Tracer(layer_of_code=layers.layer_of_code) as tracer:
        layers.install(tracer, only=only)
        region = _Traced(tracer, record_raw=trace_out is not None)
        # A partial trace (``only``) is an extra run; the full one verifies.
        rep = run_rep(name, seed, smoke, workers, region=region, verify=only is None)
        rep.spans = region.spans
        if trace_out is not None:
            with open(trace_out, "w") as handle:
                json.dump({"workload": name, "seed": seed,
                           "spans": tracer.raw_spans()}, handle)
    return rep


# --------------------------------------------------------------------------
# set-up time outside the process, memory
# --------------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    """Environment in which a child interpreter finds ``ledger`` and ``repro``."""
    env = dict(os.environ)
    paths = [REPO_ROOT, os.path.join(REPO_ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def startup_s() -> float:
    """Interpreter start + import of everything a workload needs: the median
    over a few child interpreters (a process cannot time its own start)."""
    samples = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ledger.measure"],
                       check=True, env=child_env(), cwd=REPO_ROOT)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# the two kinds of run the driver asks for
# --------------------------------------------------------------------------


@dataclass
class Result:
    """What a child prints: the driver's JSON plus the detail behind it."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, metrics.Metric]
    detail: Dict[str, Any]


class _Checker:
    """Collects every reason a run's outputs are wrong."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.problems: List[str] = []
        self.row: Optional[Dict[str, Any]] = None
        self.attempted = 0
        self.failed = 0
        if seed == DEFAULT_SEED:
            with open(GOLDEN_PATH) as handle:
                golden = json.load(handle)["smoke" if smoke else "full"]
            self.row = golden.get(name)
            if self.row is None:
                self.problems.append(f"no golden row for {name}")

    def rep(self, label: str, rep: Rep) -> None:
        outcome = rep.outcome
        self.attempted += outcome.issued
        self.failed += outcome.issued - outcome.ok
        if outcome.ok != outcome.issued:
            self.problems.append(
                f"{label}: {outcome.issued - outcome.ok} of {outcome.issued} not served")
        if self.row is None:
            self.row = outcome.row
        elif outcome.row != self.row:
            self.problems.append(f"{label}: row {outcome.row} != {self.row}")
        self.problems += [f"{label}: {violation}" for violation in rep.violations]


def measure_end_to_end(name: str, seed: int, seconds: float, smoke: bool) -> Result:
    """Timed repetitions for ``seconds``, then the counted run."""
    check = _Checker(name, seed, smoke)
    reps: List[Rep] = []
    started = time.perf_counter()
    while True:
        # Serial executor even for the lockstep workload: two workers on two
        # cores repeat within 18 %, too loose to bound; the traced child
        # measures them (simcore.domains.speedup_vs_serial).
        reps.append(run_rep(name, seed, smoke, workers=1))
        check.rep(f"rep {len(reps)}", reps[-1])
        if smoke or (len(reps) >= MIN_REPS and time.perf_counter() - started >= seconds):
            break
    rss_mb = peak_rss_mb()  # before the profiler and the probes add theirs
    counted = _Counted()
    check.rep("counted", run_rep(name, seed, smoke, 1, region=counted, verify=True))
    walls = [rep.wall_s for rep in reps]
    conv = reps[0].outcome.ok
    setup_s = startup_s() + statistics.median(rep.setup_s for rep in reps)
    values = metrics.end_to_end(
        conv=conv, walls_s=walls, calls=counted.calls,
        retained=statistics.median(rep.retained_blocks for rep in reps),
        peak_rss_mb=rss_mb, setup_s=setup_s)
    detail = {"row": check.row, "conversations": conv, "reps": len(reps),
              "wall_s": {"fastest": min(walls), "median": statistics.median(walls),
                         "slowest": max(walls)},
              "calls": counted.calls, "problems": check.problems}
    return Result(not check.problems, check.attempted, check.failed, values, detail)


def measure_per_layer(name: str, seed: int, smoke: bool,
                      trace_out: Optional[str]) -> Result:
    """Untraced baseline, then the traced run (serial, for lockstep)."""
    check = _Checker(name, seed, smoke)
    baseline: List[Rep] = []
    for index in range(1 if smoke else 2):
        baseline.append(run_rep(name, seed, smoke, 1))
        check.rep(f"untraced {index + 1}", baseline[-1])
    baseline_wall_s = min(rep.wall_s for rep in baseline)
    conv = baseline[0].outcome.ok

    workers: Optional[Rep] = None
    if "epochs" in baseline[0].outcome.row:
        # A lockstep workload: also the coordinator's side of a run on worker
        # processes, seen through the simcore.domains wrappers alone (the
        # workers inherit nothing costly).
        workers = run_traced(name, seed, smoke, min(2, os.cpu_count() or 1),
                             only="simcore.domains")
        check.rep("workers", workers)

    traced = run_traced(name, seed, smoke, 1, trace_out=trace_out)
    check.rep("traced", traced)
    total_ns = sum(stats["self_ns"] for stats in traced.spans.values())
    root_ns = traced.spans[ROOT]["incl_ns"]
    if total_ns != root_ns:
        check.problems.append(f"self times sum to {total_ns} ns, region took {root_ns} ns")
    values = metrics.per_layer(conv, traced, baseline_wall_s, workers)
    detail = {"row": check.row, "conversations": conv,
              "traced_wall_s": traced.wall_s, "baseline_wall_s": baseline_wall_s,
              "spans": traced.spans, "problems": check.problems}
    return Result(not check.problems, check.attempted, check.failed, values, detail)

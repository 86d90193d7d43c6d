"""The ledger end to end, at ``--smoke`` size (children of ``python -m ledger``)."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from ledger import DETAIL_PREFIX, metrics
from ledger.workloads import SHARDED_DOMAINS, WHY, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def child(*argv: str, hash_seed: str = "random", cwd: str = ROOT):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "-m", "ledger", *argv], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len(DETAIL_PREFIX):])
    return result


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_is_what_the_code_measures():
    declared = benchmark()
    assert declared == metrics.benchmark_json(declared["run_seconds"], WHY)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_benchmark_json_is_within_the_contract():
    declared = benchmark()
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(declared["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    assert 1 <= len(declared["end_to_end"]) <= 16 and 1 <= len(declared["per_layer"]) <= 128
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(set(names)) == len(names)
    assert all(name.match(n) for n in names)
    for spec in declared["end_to_end"]:
        assert set(spec) == {"name", "unit", "better", "bound"}
        assert 0 < spec["bound"] <= 0.25
    for spec in declared["per_layer"]:
        assert set(spec) == {"name", "unit", "better"}
    assert all(unit.match(m["unit"]) and m["better"] in ("higher", "lower")
               for m in declared["end_to_end"] + declared["per_layer"])
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])
    runs = 4 + 22 * len(declared["workloads"])
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert runs * 30 <= 3420, "a run may take 30 s on average"


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_is_correct_and_complete(workload):
    """Untraced, counted and traced repetitions all give the golden row, and
    each kind of run prints exactly the metrics BENCHMARK.json declares."""
    declared = benchmark()
    end_to_end = result_of(child("--workload", workload, "--smoke", "--trace", "0"))
    per_layer = result_of(child("--workload", workload, "--smoke", "--trace", "1"))
    for result, kind in ((end_to_end, "end_to_end"), (per_layer, "per_layer")):
        assert result["correct"], result["detail"]["problems"]
        assert result["failed"] == 0 < result["attempted"]
        assert set(result) == {"correct", "attempted", "failed", "metrics", "detail"}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared[kind]}
    assert end_to_end["detail"]["row"] == per_layer["detail"]["row"]
    assert all(m["value"] > 0 for m in end_to_end["metrics"].values())
    layer = per_layer["metrics"]
    assert layer["trace.other_share"]["value"] < 0.10
    assert (layer["simcore.domains.epochs"]["value"] > 0) == (workload == "sharded_domains")
    # Only trace_deploy deploys on demand; sharded_domains warm-deploys once per
    # domain inside its timed region (the build is part of what it measures).
    deployments = {"trace_deploy": 8, "sharded_domains": SHARDED_DOMAINS}.get(workload, 0)
    assert layer["core.deployment.cold_deployments"]["value"] == deployments
    if workload == "warm_sessions":
        assert layer["core.controller.packet_ins_per_conv"]["value"] == 0


def test_row_does_not_depend_on_the_hash_seed():
    rows = [result_of(child("--workload", "new_clients", "--smoke", "--seed", "11",
                            "--trace", "0", hash_seed=hash_seed))["detail"]["row"]
            for hash_seed in ("0", "1")]
    assert rows[0] == rows[1]


def test_a_second_seed_runs_the_invariants_without_a_golden_row():
    default = result_of(child("--workload", "warm_sessions", "--smoke", "--trace", "0"))
    other = result_of(child("--workload", "warm_sessions", "--smoke", "--seed", "11",
                            "--trace", "0"))
    assert other["correct"] and other["detail"]["row"] != default["detail"]["row"]


def test_tracing_leaves_no_patch_behind():
    from repro.simcore.loop import Simulator
    from repro.simcore.process import Process

    from ledger import measure

    before = (Simulator.schedule, Simulator.run, Process._step_send)
    rep = measure.run_traced("warm_sessions", seed=11, smoke=True, workers=1)
    assert rep.spans["simcore.loop:Simulator.run"]["calls"] > 0
    assert (Simulator.schedule, Simulator.run, Process._step_send) == before


def test_full_run_smoke(tmp_path):
    record_path = tmp_path / "record.json"
    spans_path = tmp_path / "spans.json"
    done = child("--smoke", "--only", "new_clients", "--only", "warm_sessions",
                 "--json", str(record_path), "--trace-out", str(spans_path))
    assert done.returncode == 0, done.stderr
    assert "conv_per_s" in done.stdout and "all outputs correct" in done.stdout
    record = json.loads(record_path.read_text())
    assert set(record["sets"][0]) == {"new_clients", "warm_sessions"}
    assert {"git", "nproc", "python", "seed"} <= set(record)
    assert record["sets"][0]["new_clients"]["failed_share"] == 0
    spans = json.loads((tmp_path / "spans.new_clients.json").read_text())["spans"]
    assert spans and {"name", "start_ns", "end_ns", "parent"} == set(spans[0])


def test_fails_where_there_is_nothing_to_measure(tmp_path):
    """In a directory holding only BENCHMARK.json and ledger/ the command
    must exit non-zero without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "ledger"), tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = child("--workload", "new_clients", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0 and done.stdout == ""

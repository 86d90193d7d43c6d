"""``python -m ledger`` — run from the repo root.

Two ways in:

* ``--workload W --seed N --seconds S --trace 0|1`` measures one workload in
  this interpreter and prints the driver's JSON object as the last line
  (what ``BENCHMARK.json`` names; ``--trace 0``: end-to-end metrics,
  ``--trace 1``: per-layer metrics);
* without ``--workload`` it runs every workload (or ``--only`` some), each
  kind of run in a fresh child interpreter of the first form, prints every
  metric by name and unit and checks the outputs. ``--sets N`` does that N
  times and prints how well the sets agree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("ledger: no src/repro beside the ledger directory - nothing to measure")
sys.path[:0] = [path for path in (ROOT, os.path.join(ROOT, "src")) if path not in sys.path]

from ledger import DETAIL_PREFIX  # noqa: E402 - after the path is set


def _parser() -> argparse.ArgumentParser:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m ledger", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="measure this one workload here and print the driver's JSON")
    parser.add_argument("--seed", type=int, default=2019,
                        help="feeds the testbed, trace and churn synthesizers "
                             "(default 2019, the seed golden.json was recorded for)")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="how long the timed repetitions of one run go on")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 10 and one repetition: a check, not a measurement")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the traced run's first raw spans here as JSON")
    parser.add_argument("--only", action="append", choices=names, metavar="WORKLOAD",
                        help="full run: only this workload (repeatable)")
    parser.add_argument("--sets", type=int, default=1,
                        help="full run: this many sets, and their agreement")
    parser.add_argument("--json", metavar="FILE", help="full run: write the record here")
    parser.set_defaults(names=names, benchmark=benchmark)
    return parser


# --------------------------------------------------------------------------
# one workload, here
# --------------------------------------------------------------------------


def _run_workload(args: argparse.Namespace) -> int:
    from ledger import measure

    if args.trace:
        result = measure.measure_per_layer(args.workload, args.seed, args.smoke,
                                           args.trace_out)
    else:
        result = measure.measure_end_to_end(args.workload, args.seed, args.seconds,
                                            args.smoke)
    for problem in result.detail["problems"]:
        print(f"ledger: {args.workload}: {problem}", file=sys.stderr)
    print(DETAIL_PREFIX + json.dumps(result.detail))
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": result.metrics}))
    return 0


# --------------------------------------------------------------------------
# every workload, each in a fresh child interpreter
# --------------------------------------------------------------------------


def _child(args: argparse.Namespace, workload: str, trace: int) -> Dict[str, Any]:
    command = [sys.executable, "-m", "ledger", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    if trace and args.trace_out:
        root, ext = os.path.splitext(args.trace_out)
        command += ["--trace-out", f"{root}.{workload}{ext or '.json'}"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len(DETAIL_PREFIX):])
    return result


def _git_stamp() -> Dict[str, Any]:
    def git(*argv: str) -> Optional[str]:
        try:
            return subprocess.run(["git", *argv], cwd=ROOT, check=True, text=True,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None  # not a git checkout (the driver's is not)

    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def _run_set(args: argparse.Namespace, workloads: List[str]) -> Dict[str, Any]:
    """One full set: per workload the end-to-end child, then the traced one."""
    out: Dict[str, Any] = {}
    for workload in workloads:
        end_to_end = _child(args, workload, trace=0)
        per_layer = _child(args, workload, trace=1)
        out[workload] = {
            "correct": end_to_end["correct"] and per_layer["correct"],
            "attempted": end_to_end["attempted"], "failed": end_to_end["failed"],
            "failed_share": end_to_end["failed"] / end_to_end["attempted"],
            "end_to_end": end_to_end["metrics"], "per_layer": per_layer["metrics"],
            "detail": {"end_to_end": end_to_end["detail"],
                       "per_layer": per_layer["detail"]},
        }
        _print_workload(workload, out[workload])
    return out


def _print_workload(workload: str, result: Dict[str, Any]) -> None:
    detail = result["detail"]["end_to_end"]
    wall = detail["wall_s"]
    print(f"\n== {workload}: {detail['conversations']} conversations x "
          f"{detail['reps']} repetitions, {'ok' if result['correct'] else 'WRONG'}")
    print(f"   row {detail['row']}")
    print(f"   timed region fastest {wall['fastest']:.3f} s, median "
          f"{wall['median']:.3f} s, slowest {wall['slowest']:.3f} s; "
          f"failed_share {result['failed_share']:.4f}")
    for kind in ("end_to_end", "per_layer"):
        for name, metric in result[kind].items():
            if metric["value"]:
                print(f"   {name:<48} {metric['value']:>14.4f} {metric['unit']}")
    for kind in ("end_to_end", "per_layer"):
        for problem in result["detail"][kind]["problems"]:
            print(f"   PROBLEM: {problem}")


def _agreement(args: argparse.Namespace, sets: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per end-to-end metric and workload: the sets' spread as a share of
    their median, and the bound that spread asks for (max of the declared
    bound and twice the spread)."""
    agreement: Dict[str, Any] = {}
    print("\n== agreement between sets (spread = (max - min) / median)")
    for spec in args.benchmark["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        for workload in sets[0]:
            values = [one[workload]["end_to_end"][name]["value"] for one in sets]
            spread = (max(values) - min(values)) / statistics.median(values)
            agreement.setdefault(name, {})[workload] = {
                "values": values, "spread": spread, "bound": bound,
                "bound_asked": max(bound, 2 * spread)}
            verdict = "within" if spread <= bound else "OUTSIDE"
            print(f"   {name:<26} {workload:<16} spread {spread:7.4f}  "
                  f"bound {bound:.2f}  {verdict}")
    counts = [name for name, spec in sets[0][next(iter(sets[0]))]["per_layer"].items()
              if name.endswith("_per_conv") and spec["unit"] == "count"]
    exact = all(one[workload]["per_layer"][name]["value"]
                == sets[0][workload]["per_layer"][name]["value"]
                for one in sets for workload in one for name in counts)
    print(f"   per-conversation counts identical across sets: {exact}")
    agreement["counts_identical"] = exact
    return agreement


def _run_all(args: argparse.Namespace) -> int:
    workloads = args.only or args.names
    record: Dict[str, Any] = {
        "git": _git_stamp(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke, "sets": [],
    }
    for index in range(args.sets):
        if args.sets > 1:
            print(f"\n#### set {index + 1} of {args.sets}")
        record["sets"].append(_run_set(args, workloads))
    if args.sets > 1:
        record["agreement"] = _agreement(args, record["sets"])
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=1)
    correct = all(result["correct"] for one in record["sets"] for result in one.values())
    print(f"\nledger: {'all outputs correct' if correct else 'OUTPUTS WRONG'}")
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.workload:
        return _run_workload(args)
    return _run_all(args)


if __name__ == "__main__":
    sys.exit(main())

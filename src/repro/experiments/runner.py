"""Regenerate every table and figure from the command line.

Usage::

    python -m repro.experiments                # everything (quick repeats)
    python -m repro.experiments --part b       # only Table I + figs. 9-16
    python -m repro.experiments --part a       # only A1-A4
    python -m repro.experiments --part ablations
    python -m repro.experiments --part ext     # future-work extensions
    python -m repro.experiments --full         # paper-faithful 42 repeats
    python -m repro.experiments --out results.txt
    python -m repro.experiments --domains 4    # 4 domain workers (A7)
    python -m repro.experiments --only A7      # one artifact by name
    python -m repro.experiments --profile      # cProfile per artifact → .pstats

Every artifact is one deterministic serial computation in this process.
Domain-sharded scenarios merge deterministically, so ``--domains N`` output
is byte-identical to ``--domains 1`` (see docs/sharding.md).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, List, Optional, Tuple

from repro.experiments import ablations, churn, extensions, parta, partb, robustness
from repro.experiments import domains as domains_exp
from repro.metrics import ArtifactTiming, RunReport, Series, Table, perf, render_series, render_table
from repro.simcore.domains import domain_workers


def _render(artifact) -> str:
    if isinstance(artifact, Table):
        return render_table(artifact)
    if isinstance(artifact, Series):
        return render_series(artifact)
    return str(artifact)


def artifact_registry(full: bool) -> List[Tuple[str, str, Callable]]:
    """(part, name, driver) for every regenerable artifact.

    Raises ``ValueError`` if two artifacts would silently share a CSV file
    name (``_csv_name`` is lossy, so this is checked at build time).
    """
    repeats = 42 if full else 7
    entries: List[Tuple[str, str, Callable]] = [
        ("b", "Table I", partb.table1_catalog),
        ("b", "Fig. 9", partb.fig9_request_distribution),
        ("b", "Fig. 10 (trace)", partb.fig10_deployment_distribution),
        ("b", "Fig. 10 (measured)", partb.fig10_measured_deployments),
        ("b", "Fig. 11", lambda: partb.fig11_scale_up(repeats=repeats)),
        ("b", "Fig. 12", lambda: partb.fig12_create_scale_up(repeats=repeats)),
        ("b", "Fig. 13", partb.fig13_pull_times),
        ("b", "Fig. 14", lambda: partb.fig14_wait_after_scale_up(repeats=repeats)),
        ("b", "Fig. 15", lambda: partb.fig15_wait_after_create_scale_up(repeats=repeats)),
        ("b", "Fig. 16", partb.fig16_running_instance),
        ("a", "A1", parta.a1_edge_vs_cloud),
        ("a", "A2", parta.a2_first_packet_overhead),
        ("a", "A2b", parta.a2b_control_latency_sweep),
        ("a", "A3", parta.a3_controller_scaling),
        ("a", "A3b", parta.a3_service_count_scaling),
        ("a", "A4", parta.a4_flowtable_occupancy),
        ("a", "A5", parta.a5_multiswitch_overhead),
        ("a", "A6", parta.a6_scale),
        ("a", "A7", domains_exp.a7_sharded_domains),
        ("ablations", "FlowMemory", ablations.ablation_flow_memory),
        ("ablations", "Waiting modes", ablations.ablation_waiting_modes),
        ("ablations", "Hybrid Docker→K8s", ablations.ablation_hybrid_docker_then_k8s),
        ("ablations", "Schedulers", ablations.ablation_schedulers),
        ("ablations", "Registry/cache", ablations.ablation_registry_cache),
        ("ext", "E1 serverless", extensions.e1_serverless_vs_containers),
        ("ext", "E1b artifact sizes", extensions.e1_artifact_sizes),
        ("ext", "E2 follow-me", extensions.e2_follow_me_handover),
        ("ext", "E3 proactive", extensions.e3_proactive_deployment),
        ("ext", "E4 hierarchy", extensions.e4_hierarchical_escape),
        ("ext", "E5 autoscaling", extensions.e5_autoscaling_under_load),
        ("churn", "C1 registry churn", churn.c1_registry_churn),
        ("robustness", "R1 availability", robustness.r1_availability_vs_pull_failures),
        ("robustness", "R2 breaker", robustness.r2_breaker_outage_ablation),
        ("robustness", "R3 crash chaos", robustness.r3_controller_crash_chaos),
        ("robustness", "R4 mixed chaos", robustness.r4_mixed_chaos_sweep),
    ]
    _check_csv_collisions(entries)
    return entries


def _check_csv_collisions(entries: List[Tuple[str, str, Callable]]) -> None:
    seen: dict = {}
    for part, name, _ in entries:
        csv = _csv_name(f"{part}_{name}")
        if csv in seen:
            other_part, other_name = seen[csv]
            raise ValueError(
                f"artifact CSV name collision: ({other_part!r}, {other_name!r}) "
                f"and ({part!r}, {name!r}) both map to {csv!r}")
        seen[csv] = (part, name)


def _csv_name(name: str) -> str:
    out = "".join(ch.lower() if ch.isalnum() else "_" for ch in name)
    while "__" in out:
        out = out.replace("__", "_")
    return out.strip("_") + ".csv"


def _csv_payload(artifact) -> str:
    from repro.metrics import series_to_csv, table_to_csv

    if isinstance(artifact, Table):
        return table_to_csv(artifact)
    if isinstance(artifact, Series):
        return series_to_csv(artifact)
    return str(artifact)  # pragma: no cover - future artifact kinds


def select(registry: List[Tuple[str, str, Callable]],
           parts: Optional[List[str]] = None,
           only: Optional[List[str]] = None) -> List[Tuple[str, str, Callable]]:
    """The registry entries in ``parts`` (all parts when empty) and named in
    ``only`` (all names when empty), in registry order."""
    return [(part, name, driver) for part, name, driver in registry
            if (not parts or part in parts) and (not only or name in only)]


def run(parts: Optional[List[str]] = None, full: bool = False,
        out=None, csv_dir: Optional[str] = None,
        profile: bool = False, domains: int = 1,
        only: Optional[List[str]] = None) -> int:
    """Regenerate the selected artifacts; returns the number regenerated.

    With ``csv_dir``, every Table/Series is also written as raw CSV for
    downstream plotting. ``domains > 1`` runs domain-sharded scenarios (A7)
    over that many lockstep worker processes (byte-identical to serial).
    ``only`` restricts to artifacts by exact name (e.g. ``["A7"]``).
    ``profile`` wraps each artifact in cProfile and dumps
    ``<artifact>.pstats`` next to its CSV (or into the current directory
    without ``csv_dir``).
    """
    import cProfile
    import os

    stream = out if out is not None else sys.stdout
    if csv_dir is not None:
        os.makedirs(csv_dir, exist_ok=True)
    report = RunReport()
    profiles: List[str] = []
    with domain_workers(domains):
        for part, name, driver in select(artifact_registry(full), parts, only):
            # Real wall/CPU time of regenerating the artifact (reporting
            # only; never feeds back into any simulation).
            started = time.perf_counter()  # repro: noqa[REP001] host-side timing
            cpu_started = time.process_time()  # repro: noqa[REP001] host-side timing
            perf_before = perf.snapshot()
            if profile:
                profiler = cProfile.Profile()
                artifact = profiler.runcall(driver)
                pstats_path = os.path.join(
                    csv_dir if csv_dir is not None else ".",
                    _csv_name(f"{part}_{name}")[:-len(".csv")] + ".pstats")
                profiler.dump_stats(pstats_path)
                profiles.append(pstats_path)
            else:
                artifact = driver()
            elapsed = time.perf_counter() - started  # repro: noqa[REP001] host-side timing
            cpu_s = time.process_time() - cpu_started  # repro: noqa[REP001] host-side timing
            print(f"\n### [{part}] {name}  (regenerated in {elapsed:.1f}s wall)\n",
                  file=stream)
            print(_render(artifact), file=stream)
            if csv_dir is not None:
                path = os.path.join(csv_dir, _csv_name(f"{part}_{name}"))
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(_csv_payload(artifact))
            report.add(ArtifactTiming(part=part, name=name, wall_s=elapsed,
                                      cpu_s=cpu_s, perf=perf.delta(perf_before)))
    if report.artifacts:
        print(f"\n{report.render()}", file=stream)
    if profiles:
        print(f"\nprofiles ({len(profiles)}, inspect with "
              f"`python -m pstats <path>`):", file=stream)
        for path in profiles:
            print(f"  {path}", file=stream)
    return report.artifacts


def main(argv: Optional[List[str]] = None) -> int:
    names = [name for _, name, _ in artifact_registry(full=False)]
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("--part",
                        choices=["a", "b", "ablations", "ext", "churn",
                                 "robustness"],
                        action="append", dest="parts",
                        help="restrict to one part (repeatable)")
    parser.add_argument("--full", action="store_true",
                        help="paper-faithful 42 repeats per cell (slower)")
    parser.add_argument("--out", type=str, default=None,
                        help="write to a file instead of stdout")
    parser.add_argument("--csv-dir", type=str, default=None,
                        help="also dump every artifact as raw CSV here")
    parser.add_argument("--domains", type=int, default=1, metavar="N",
                        help="run domain-sharded scenarios (A7) over N "
                             "lockstep worker processes (output is "
                             "byte-identical to serial)")
    parser.add_argument("--only", type=str, action="append", metavar="NAME",
                        choices=names,
                        help="restrict to artifacts by exact name, e.g. "
                             "--only A7 (repeatable)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile each artifact and dump "
                             "<artifact>.pstats next to its CSV")
    args = parser.parse_args(argv)
    if not select(artifact_registry(args.full), args.parts, args.only):
        parser.error("empty selection: no artifact of --part "
                     f"{', '.join(args.parts or [])} is named by --only "
                     f"{', '.join(args.only or [])}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            count = run(args.parts, args.full, out=handle, csv_dir=args.csv_dir,
                        profile=args.profile, domains=args.domains,
                        only=args.only)
        print(f"wrote {count} artifacts to {args.out}")
    else:
        count = run(args.parts, args.full, csv_dir=args.csv_dir,
                    profile=args.profile, domains=args.domains, only=args.only)
    return 0 if count else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

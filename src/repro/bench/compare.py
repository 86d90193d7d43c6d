"""Compare two bench records: per-benchmark deltas and a regression gate.

``python -m repro.bench --compare OLD.json`` runs the suite and diffs the
fresh record against ``OLD.json``; ``--against NEW.json`` diffs two
existing files without running anything. A regression is any shared
``us_per_*`` (time-per-operation) metric that grew by more than
``--max-regress-pct`` percent — lower is better for those by construction.
Comparison covers the metrics both records share, and reports the
added/removed ones.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

#: schemas this reader understands
KNOWN_SCHEMAS = ("repro-bench/2",)

#: substring marking a gated lower-is-better metric
GATED_MARKER = "us_per"


def load_record(path: str) -> Dict[str, Any]:
    """Load and validate a bench record."""
    with open(path, encoding="utf-8") as handle:
        record: Dict[str, Any] = json.load(handle)
    schema = record.get("schema")
    if schema not in KNOWN_SCHEMAS:
        raise ValueError(f"{path}: unknown bench schema {schema!r} "
                         f"(known: {', '.join(KNOWN_SCHEMAS)})")
    record.setdefault("meta", {})
    record.setdefault("benchmarks", {})
    return record


def flatten_metrics(record: Dict[str, Any]) -> Dict[str, float]:
    """``benchmarks`` flattened to dotted-path -> numeric value."""
    out: Dict[str, float] = {}

    def walk(prefix: str, node: Dict[str, Any]) -> None:
        for key, value in sorted(node.items()):
            if isinstance(value, dict):
                walk(f"{prefix}{key}.", value)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                out[prefix + key] = float(value)

    walk("", record["benchmarks"])
    return out


def is_gated(metric: str) -> bool:
    """Whether a metric participates in the regression gate."""
    return GATED_MARKER in metric.rsplit(".", 1)[-1]


def compare(old: Dict[str, Any], new: Dict[str, Any],
            max_regress_pct: float = 20.0) -> Tuple[List[str], List[str]]:
    """Diff two records; returns (report lines, regression descriptions).

    Regressions are empty iff no shared gated metric grew beyond
    ``max_regress_pct`` percent.
    """
    old_metrics = flatten_metrics(old)
    new_metrics = flatten_metrics(new)
    lines: List[str] = []
    regressions: List[str] = []

    lines.append(f"old: schema={old.get('schema')} pr={old.get('pr')} "
                 f"smoke={old.get('smoke')} "
                 f"commit={old.get('meta', {}).get('git_commit')}")
    lines.append(f"new: schema={new.get('schema')} pr={new.get('pr')} "
                 f"smoke={new.get('smoke')} "
                 f"commit={new.get('meta', {}).get('git_commit')}")
    if old.get("smoke") != new.get("smoke"):
        lines.append("warning: comparing smoke and full records — iteration "
                     "counts differ, deltas are indicative only")
    for which, record in (("old", old), ("new", new)):
        if record.get("meta", {}).get("git_dirty"):
            lines.append(f"warning: {which} record was generated from a dirty "
                         "working tree — its commit does not reproduce it")
    lines.append("")

    shared = sorted(set(old_metrics) & set(new_metrics))
    width = max((len(name) for name in shared), default=0)
    for name in shared:
        before, after = old_metrics[name], new_metrics[name]
        if before:
            pct = (after - before) / before * 100.0
            delta = f"{pct:+7.1f}%"
        else:
            delta = "    n/a" if after else "   +0.0%"
        gated = is_gated(name)
        marker = " "
        if gated and before and after > before * (1.0 + max_regress_pct / 100.0):
            marker = "!"
            regressions.append(
                f"{name}: {before:g} -> {after:g} "
                f"({(after - before) / before * 100.0:+.1f}% > "
                f"+{max_regress_pct:g}% allowed)")
        lines.append(f"{marker} {name:<{width}}  {before:>12g} -> {after:>12g}"
                     f"  {delta}{'  [gated]' if gated else ''}")

    added = sorted(set(new_metrics) - set(old_metrics))
    removed = sorted(set(old_metrics) - set(new_metrics))
    if added:
        lines.append("")
        lines.append(f"only in new ({len(added)}): " + ", ".join(added))
    if removed:
        lines.append("")
        lines.append(f"only in old ({len(removed)}): " + ", ".join(removed))
    return lines, regressions


def dirty_meta_failures(record: Dict[str, Any], label: str = "record") -> List[str]:
    """Clean-meta gate: a record whose ``meta.git_dirty`` is true was
    generated from a tree with uncommitted changes, so its ``git_commit``
    does not reproduce its numbers. ``None`` (no meta / outside git) passes
    — only a positive dirty stamp fails the gate."""
    if record.get("meta", {}).get("git_dirty"):
        commit = record.get("meta", {}).get("git_commit")
        return [f"{label}: meta.git_dirty=true (commit={commit}) — "
                "regenerate the record from a clean committed tree"]
    return []


def memory_budget_failures(record: Dict[str, Any]) -> List[str]:
    """Benchmarks in ``record`` that overran their declared memory budget."""
    failures: List[str] = []
    for name, bench in sorted(record["benchmarks"].items()):
        if not isinstance(bench, dict) or "within_budget" not in bench:
            continue
        if not bench["within_budget"]:
            failures.append(
                f"{name}: peak_tracemalloc_mb={bench.get('peak_tracemalloc_mb')} "
                f"> budget_mb={bench.get('budget_mb')}")
    return failures

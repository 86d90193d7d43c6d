"""Unit tests for the bench record reader/comparator and its CLI gates."""

import json

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.compare import (
    compare,
    dirty_meta_failures,
    flatten_metrics,
    is_gated,
    load_record,
    memory_budget_failures,
)


def _record(**benchmarks):
    return {"schema": "repro-bench/2", "pr": 5, "smoke": True,
            "benchmarks": benchmarks,
            "meta": {"git_commit": "deadbeef",
                     "flow_table_entries": {"packet_path": 1000}}}


def _write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


class TestLoadRecord:
    def test_v2_roundtrip(self, tmp_path):
        path = _write(tmp_path, "new.json",
                      _record(alpha={"us_per_op": 1.0}))
        record = load_record(path)
        assert record["meta"]["git_commit"] == "deadbeef"

    @pytest.mark.parametrize("schema", ["repro-bench/1", "repro-bench/99"])
    def test_unknown_schema_rejected(self, tmp_path, schema):
        path = _write(tmp_path, "bad.json", {"schema": schema})
        with pytest.raises(ValueError, match="unknown bench schema"):
            load_record(path)


class TestFlattenAndGating:
    def test_flatten_nested_and_skips_non_numbers(self):
        record = _record(alpha={"us_per_op": 1.5, "ok": True, "note": "x",
                                "nested": {"count": 3}})
        assert flatten_metrics(record) == {
            "alpha.us_per_op": 1.5, "alpha.nested.count": 3.0}

    def test_gating_is_on_the_leaf_name(self):
        assert is_gated("controller_slow_path.us_per_packetin_memo")
        assert not is_gated("a6_scale.peak_rss_mb")
        assert not is_gated("us_per_suite.total_count")  # leaf decides


class TestCompare:
    def test_regression_detected_only_past_threshold(self):
        old = _record(alpha={"us_per_op": 10.0, "count": 5})
        ok = _record(alpha={"us_per_op": 11.9, "count": 99})
        bad = _record(alpha={"us_per_op": 12.1, "count": 5})
        _, regressions = compare(old, ok, max_regress_pct=20.0)
        assert regressions == []
        _, regressions = compare(old, bad, max_regress_pct=20.0)
        assert len(regressions) == 1 and "us_per_op" in regressions[0]

    def test_improvement_and_non_gated_growth_pass(self):
        old = _record(alpha={"us_per_op": 10.0, "speedup": 2.0})
        new = _record(alpha={"us_per_op": 1.0, "speedup": 50.0})
        _, regressions = compare(old, new)
        assert regressions == []

    def test_added_and_removed_metrics_reported_not_gated(self):
        old = _record(alpha={"us_per_op": 1.0}, gone={"us_per_x": 9.0})
        new = _record(alpha={"us_per_op": 1.0}, fresh={"us_per_y": 99.0})
        lines, regressions = compare(old, new)
        assert regressions == []
        text = "\n".join(lines)
        assert "only in new (1): fresh.us_per_y" in text
        assert "only in old (1): gone.us_per_x" in text

    def test_smoke_full_mismatch_warns(self):
        old = _record(alpha={"us_per_op": 1.0})
        new = _record(alpha={"us_per_op": 1.0})
        new["smoke"] = False
        lines, _ = compare(old, new)
        assert any("smoke" in line and "warning" in line for line in lines)

    def test_dirty_meta_warns_but_does_not_gate(self):
        old = _record(alpha={"us_per_op": 1.0})
        new = _record(alpha={"us_per_op": 1.0})
        new["meta"]["git_dirty"] = True
        lines, regressions = compare(old, new)
        assert regressions == []
        assert any("dirty" in line and "warning" in line for line in lines)

    def test_clean_meta_does_not_warn(self):
        old = _record(alpha={"us_per_op": 1.0})
        new = _record(alpha={"us_per_op": 1.0})
        lines, _ = compare(old, new)
        assert not any("dirty" in line for line in lines)


class TestDirtyMeta:
    def test_dirty_record_fails_the_gate(self):
        record = _record(alpha={"us_per_op": 1.0})
        record["meta"]["git_dirty"] = True
        failures = dirty_meta_failures(record, "baseline")
        assert len(failures) == 1 and failures[0].startswith("baseline:")

    def test_clean_and_unknown_meta_pass(self):
        assert dirty_meta_failures(_record(alpha={"us_per_op": 1.0})) == []
        # git_dirty=None (outside a checkout) and an empty meta block pass
        record = _record(alpha={"us_per_op": 1.0})
        record["meta"]["git_dirty"] = None
        assert dirty_meta_failures(record) == []
        assert dirty_meta_failures({"meta": {}, "benchmarks": {}}) == []


class TestMemoryBudget:
    def test_overrun_flagged(self):
        record = _record(
            a6_scale={"peak_tracemalloc_mb": 300.0, "budget_mb": 256.0,
                      "within_budget": False},
            other={"us_per_op": 1.0})
        failures = memory_budget_failures(record)
        assert len(failures) == 1 and "a6_scale" in failures[0]

    def test_within_budget_clean(self):
        record = _record(
            a6_scale={"peak_tracemalloc_mb": 12.0, "budget_mb": 256.0,
                      "within_budget": True})
        assert memory_budget_failures(record) == []


class TestCli:
    """--against diffs two existing files without running the suite."""

    def test_against_clean_exit_zero(self, tmp_path, capsys):
        old = _write(tmp_path, "old.json", _record(alpha={"us_per_op": 5.0}))
        new = _write(tmp_path, "new.json", _record(alpha={"us_per_op": 5.5}))
        assert bench_main(["--compare", old, "--against", new]) == 0
        assert "no gated regressions" in capsys.readouterr().out

    def test_against_regression_exit_nonzero(self, tmp_path, capsys):
        old = _write(tmp_path, "old.json", _record(alpha={"us_per_op": 5.0}))
        new = _write(tmp_path, "new.json", _record(alpha={"us_per_op": 9.0}))
        assert bench_main(["--compare", old, "--against", new]) == 1
        assert "regressed" in capsys.readouterr().err

    def test_against_custom_threshold(self, tmp_path):
        old = _write(tmp_path, "old.json", _record(alpha={"us_per_op": 5.0}))
        new = _write(tmp_path, "new.json", _record(alpha={"us_per_op": 9.0}))
        assert bench_main(["--compare", old, "--against", new,
                           "--max-regress-pct", "100"]) == 0

    def test_memory_budget_gate(self, tmp_path, capsys):
        old = _write(tmp_path, "old.json", _record(alpha={"us_per_op": 5.0}))
        new = _write(
            tmp_path, "new.json",
            _record(alpha={"us_per_op": 5.0},
                    a6_scale={"peak_tracemalloc_mb": 999.0,
                              "budget_mb": 256.0, "within_budget": False}))
        assert bench_main(["--compare", old, "--against", new,
                           "--enforce-memory-budget"]) == 1
        assert "memory budget exceeded" in capsys.readouterr().err

    def test_against_requires_compare(self, tmp_path):
        new = _write(tmp_path, "new.json", _record())
        with pytest.raises(SystemExit):
            bench_main(["--against", new])

    def test_enforce_clean_meta_gate(self, tmp_path, capsys):
        old = _write(tmp_path, "old.json", _record(alpha={"us_per_op": 5.0}))
        dirty = _record(alpha={"us_per_op": 5.0})
        dirty["meta"]["git_dirty"] = True
        new = _write(tmp_path, "new.json", dirty)
        assert bench_main(["--compare", old, "--against", new,
                           "--enforce-clean-meta"]) == 1
        assert "dirty-tree bench record" in capsys.readouterr().err
        # the same comparison passes without the flag
        assert bench_main(["--compare", old, "--against", new]) == 0

    def test_enforce_clean_meta_checks_the_baseline_too(self, tmp_path, capsys):
        dirty = _record(alpha={"us_per_op": 5.0})
        dirty["meta"]["git_dirty"] = True
        old = _write(tmp_path, "old.json", dirty)
        new = _write(tmp_path, "new.json", _record(alpha={"us_per_op": 5.0}))
        assert bench_main(["--compare", old, "--against", new,
                           "--enforce-clean-meta"]) == 1
        assert "baseline:" in capsys.readouterr().err

"""Tests for the artifact runner CLI and quick driver sanity checks."""

import io

import pytest

from repro.experiments import parta, partb
from repro.experiments.runner import (
    _check_csv_collisions,
    _csv_name,
    artifact_registry,
    main,
    run,
)
from repro.metrics import Series, Table


class TestRegistry:
    def test_covers_all_parts(self):
        parts = {part for part, _, _ in artifact_registry(full=False)}
        assert parts == {"a", "b", "ablations", "ext", "robustness", "churn"}

    def test_part_b_covers_every_figure(self):
        names = [name for part, name, _ in artifact_registry(full=False)
                 if part == "b"]
        for figure in ("Table I", "Fig. 9", "Fig. 10 (trace)", "Fig. 11",
                       "Fig. 12", "Fig. 13", "Fig. 14", "Fig. 15", "Fig. 16"):
            assert any(figure in name for name in names), figure

    def test_full_flag_changes_repeats(self):
        quick = artifact_registry(full=False)
        full = artifact_registry(full=True)
        assert len(quick) == len(full)


class TestRun:
    def test_run_subset_writes_renderings(self):
        stream = io.StringIO()
        count = run(parts=["b"], full=False, out=stream)
        text = stream.getvalue()
        assert count == 10
        assert "Table I" in text
        assert "Fig. 16" in text
        assert "#" in text  # series bars rendered

    def test_main_with_out_file(self, tmp_path):
        out = tmp_path / "artifacts.txt"
        code = main(["--part", "b", "--out", str(out)])
        assert code == 0
        assert "Fig. 11" in out.read_text()

    def test_main_invalid_part_rejected(self):
        with pytest.raises(SystemExit):
            main(["--part", "zzz"])

    def test_main_unknown_only_name_lists_the_valid_names(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--only", "A8"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert "'A8'" in error
        for _, name, _ in artifact_registry(full=False):
            assert repr(name) in error

    def test_main_empty_selection_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--part", "a", "--only", "Fig. 9"])
        assert exit_info.value.code == 2
        assert "empty selection" in capsys.readouterr().err


class TestCsvNameCollision:
    def test_registry_names_are_collision_free(self):
        # building the registry runs the check; it must not raise
        entries = artifact_registry(full=False)
        csvs = {_csv_name(f"{part}_{name}") for part, name, _ in entries}
        assert len(csvs) == len(entries)

    def test_colliding_names_raise_at_build_time(self):
        # "Fig. 9" and "Fig 9" both sanitize to fig_9.csv — previously two
        # artifacts would silently overwrite each other's CSV file
        entries = [("b", "Fig. 9", lambda: None),
                   ("b", "Fig 9", lambda: None)]
        with pytest.raises(ValueError, match="collision"):
            _check_csv_collisions(entries)

    def test_collision_message_names_both_artifacts(self):
        entries = [("a", "A-1", lambda: None), ("a", "A 1", lambda: None)]
        with pytest.raises(ValueError, match="A-1"):
            _check_csv_collisions(entries)


class TestDriverContracts:
    """Every driver returns a well-formed Table/Series (fast params)."""

    def test_fig11_table_shape(self):
        table = partb.fig11_scale_up(repeats=2)
        assert isinstance(table, Table)
        assert [row["service"] for row in table.rows] == \
            ["asm", "nginx", "resnet", "nginx+py"]
        assert all(row["docker_median"] > 0 for row in table.rows)

    def test_fig9_series_shape(self):
        series = partb.fig9_request_distribution()
        assert isinstance(series, Series)
        assert len(series.x) == len(series.y) == 300

    def test_a1_rows_per_rtt(self):
        table = parta.a1_edge_vs_cloud(cloud_rtts_s=(0.010, 0.020), requests=3)
        assert len(table.rows) == 2

    def test_a3_concurrency_levels(self):
        table = parta.a3_controller_scaling(concurrency_levels=(1, 2),
                                            n_services=2)
        assert [row["concurrent"] for row in table.rows] == [1, 2]

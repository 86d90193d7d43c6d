"""The runner's ``--profile`` flag: one ``.pstats`` per regenerated artifact."""

import io
import pstats

import repro.experiments.runner as runner_module
from repro.experiments.runner import run
from repro.metrics import Table


def _tiny_registry(full):
    def driver():
        table = Table(title="Tiny", columns=["k", "v"], time_columns=set())
        table.add(k="alpha", v=1)
        return table
    return [("a", "Tiny", driver)]


class TestProfileFlag:
    def test_pstats_written_next_to_csv(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_module, "artifact_registry", _tiny_registry)
        csv_dir = tmp_path / "csv"
        out = io.StringIO()
        assert run(parts=["a"], out=out, csv_dir=str(csv_dir),
                   profile=True) == 1
        pstats_path = csv_dir / "a_tiny.pstats"
        assert pstats_path.is_file()
        assert (csv_dir / "a_tiny.csv").is_file()
        # the dump is loadable and captured the driver call
        stats = pstats.Stats(str(pstats_path))
        assert stats.total_calls > 0
        # and the run summary points at it
        assert "a_tiny.pstats" in out.getvalue()
        assert "profiles (1" in out.getvalue()

    def test_profile_output_matches_unprofiled(self, tmp_path, monkeypatch):
        """Profiling is observation only — artifacts are unchanged."""
        monkeypatch.setattr(runner_module, "artifact_registry", _tiny_registry)
        plain_dir = tmp_path / "plain"
        prof_dir = tmp_path / "prof"
        run(parts=["a"], out=io.StringIO(), csv_dir=str(plain_dir))
        run(parts=["a"], out=io.StringIO(), csv_dir=str(prof_dir),
            profile=True)
        assert (plain_dir / "a_tiny.csv").read_bytes() == \
            (prof_dir / "a_tiny.csv").read_bytes()

    def test_no_profiles_without_flag(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_module, "artifact_registry", _tiny_registry)
        out = io.StringIO()
        run(parts=["a"], out=out, csv_dir=str(tmp_path / "csv"))
        assert "profiles" not in out.getvalue()
        assert not list((tmp_path / "csv").glob("*.pstats"))

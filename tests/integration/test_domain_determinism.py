"""End-to-end byte-identity gates for the sharded A7 experiment.

The ``--domains N`` flag chooses the execution vehicle (worker
processes under conservative lockstep), never the logical partition —
so the emitted CSV must be byte-identical for any N, and invariant
under the interpreter's hash seed.  These run the real CLI in child
interpreters, the same way CI does.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

CSV_NAME = "a_a7.csv"


def _run_a7(tmp_path, tag: str, *, domains: int = 1,
            hash_seed: str = "0") -> bytes:
    csv_dir = tmp_path / f"csv-{tag}"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--only", "A7",
         "--domains", str(domains), "--csv-dir", str(csv_dir)],
        capture_output=True, text=True, env=env, timeout=600)
    assert result.returncode == 0, result.stderr
    payload = (csv_dir / CSV_NAME).read_bytes()
    assert payload, "A7 produced an empty CSV"
    return payload


@pytest.mark.slow
def test_domains_flag_is_output_invariant(tmp_path):
    serial = _run_a7(tmp_path, "d1", domains=1)
    two = _run_a7(tmp_path, "d2", domains=2)
    four = _run_a7(tmp_path, "d4", domains=4)
    assert serial == two
    assert serial == four


@pytest.mark.slow
def test_sharded_run_is_hash_seed_invariant(tmp_path):
    first = _run_a7(tmp_path, "h0", domains=2, hash_seed="0")
    second = _run_a7(tmp_path, "h31337", domains=2, hash_seed="31337")
    assert first == second

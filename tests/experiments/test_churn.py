"""Tests for the C1 registry-churn experiment (repro.experiments.churn)."""

import pytest

from repro.experiments.churn import c1_churn_cell, c1_registry_churn
from repro.metrics import table_to_csv


class TestChurnCell:
    def test_invariants_hold_on_small_tier(self):
        row = c1_churn_cell(n_services=64, churn_ops=48, clients=6, seed=401)
        assert row["misdispatched"] == 0
        assert row["verify_violations"] == 0
        assert row["ok"] == row["clients"] == 6
        assert row["churn_ops"] == 48
        assert row["decision_probes"] > 0
        # Every churn op and every registration bumped the generation.
        assert row["registry_generation"] >= 48 + 64

    @pytest.mark.parametrize("n_services, churn_ops, clients", [(64, 48, 6), (256, 128, 24)])
    def test_cell_is_pure_function_of_seed(self, n_services, churn_ops, clients):
        size = dict(n_services=n_services, churn_ops=churn_ops, clients=clients)
        a = c1_churn_cell(**size, seed=401)
        b = c1_churn_cell(**size, seed=401)
        assert a == b
        assert a["misdispatched"] == 0
        assert a["verify_violations"] == 0
        c = c1_churn_cell(**size, seed=402)
        assert c != a  # the seed genuinely steers the scenario

    def test_driver_renders_csv(self):
        table = c1_registry_churn(tiers=((64, 32),), clients=4)
        csv = table_to_csv(table)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("services,churn_ops,clients,ok,misdispatched")
        assert len(lines) == 2
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["misdispatched"] == "0"
        assert row["verify_violations"] == "0"

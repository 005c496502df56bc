"""Tests for the RL design-comparison driver."""

import pytest

from repro.baselines.oracle import OptOracle
from repro.core.engine import AutoScale
from repro.core.qlearning import QTable
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.evalharness.rl_comparison import compare_rl_designs
from repro.evalharness.runner import evaluate_autoscale, train_autoscale
from repro.hardware.devices import build_device
from repro.models.zoo import build_network


@pytest.fixture(scope="module")
def result():
    return compare_rl_designs(network_names=("mobilenet_v3",),
                              train_runs=100, eval_runs=10, seed=0)


class TestCompareRlDesigns:
    def test_all_four_learners(self, result):
        assert [r["learner"] for r in result["rows"]] == [
            "q_learning", "sarsa", "linear_q", "mlp_q",
        ]

    def test_tabular_learners_match_oracle(self, result):
        rows = {r["learner"]: r for r in result["rows"]}
        assert rows["q_learning"]["prediction_accuracy_pct"] >= 70.0
        assert rows["sarsa"]["prediction_accuracy_pct"] >= 70.0

    def test_linear_q_smallest_memory(self, result):
        rows = {r["learner"]: r for r in result["rows"]}
        assert rows["linear_q"]["memory_bytes"] \
            < rows["q_learning"]["memory_bytes"]

    def test_decision_overheads_positive(self, result):
        for row in result["rows"]:
            assert row["decide_us"] > 0

    def test_table_rendered(self, result):
        assert "RL design comparison" in result["table"]

    def test_rows_pinned(self, result):
        """(accuracy %, mean energy mJ, QoS violation %) per learner, as
        the separate per-learner training loop this driver replaced
        produced them at this size and seed."""
        expected = {
            "q_learning": (100.0, 35.84120218368118, 0.0),
            "sarsa": (100.0, 35.033780871512825, 0.0),
            "linear_q": (100.0, 35.613003431430435, 0.0),
            "mlp_q": (0.0, 41.58271551912856, 0.0),
        }
        assert {
            r["learner"]: (r["prediction_accuracy_pct"],
                           r["mean_energy_mj"], r["qos_violation_pct"])
            for r in result["rows"]
        } == expected

    def test_q_learning_row_is_the_engine_protocol(self, result):
        environment = EdgeCloudEnvironment(build_device("mi8pro"),
                                           scenario="S1", seed=0)
        engine = AutoScale(environment, seed=0,
                           qtable=QTable(3072, 66, seed=0))
        use_case = use_case_for(build_network("mobilenet_v3"))
        train_autoscale(engine, [use_case], ("S1",), 100)
        stats = evaluate_autoscale(engine, use_case, 10,
                                   oracle=OptOracle())
        row = result["rows"][0]
        assert row["learner"] == "q_learning"
        assert row["mean_energy_mj"] == stats.mean_energy_mj
        assert row["qos_violation_pct"] == stats.qos_violation_pct
        assert row["prediction_accuracy_pct"] \
            == stats.prediction_accuracy_pct
        assert row["memory_bytes"] == engine.memory_footprint_bytes()

"""Comparison of RL value-learner designs (Section IV's trade-off).

The paper selects tabular Q-learning over TD-learning and deep RL for its
low per-decision latency.  This driver runs each learner of
``repro.core`` inside the engine every figure runs
(``AutoScale(qtable=...)``), trains it with :func:`train_autoscale`,
evaluates the frozen learner with :func:`evaluate_autoscale` against the
oracle, and reports decision quality (energy vs the oracle), QoS
violations, per-decision overhead (the engine's own select timer, as in
Section VI-C's overhead report) and memory, making the paper's design
argument measurable.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.oracle import OptOracle
from repro.core.alternatives import (
    LinearQFunction,
    MlpQNetwork,
    SarsaTable,
)
from repro.core.engine import AutoScale
from repro.core.qlearning import QLearningConfig, QTable
from repro.core.state import table_i_state_space
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.evalharness.metrics import summarize
from repro.evalharness.reporting import format_table
from repro.evalharness.runner import evaluate_autoscale, train_autoscale
from repro.hardware.devices import build_device
from repro.models.zoo import build_network

__all__ = ["compare_rl_designs"]


def compare_rl_designs(device_name="mi8pro",
                       network_names=("mobilenet_v3", "resnet_50"),
                       train_runs=120, eval_runs=15, seed=0):
    """Q-learning vs SARSA vs linear and neural function approximation."""
    use_cases = [use_case_for(build_network(name))
                 for name in network_names]
    space = table_i_state_space()
    config = QLearningConfig()

    learners = (
        ("q_learning", lambda n: QTable(space.size, n, config, seed)),
        ("sarsa", lambda n: SarsaTable(space.size, n, config, seed)),
        ("linear_q", lambda n: LinearQFunction(space, n, config, seed)),
        ("mlp_q", lambda n: MlpQNetwork(space, n, config, seed=seed)),
    )
    rows = []
    for name, make_learner in learners:
        environment = EdgeCloudEnvironment(build_device(device_name),
                                           scenario="S1", seed=seed)
        engine = AutoScale(
            environment, space, config=config, seed=seed,
            qtable=make_learner(len(environment.action_space)),
        )
        train_autoscale(engine, use_cases, ("S1",), train_runs)
        engine.overhead.select_us.clear()  # the trained learner only
        oracle = OptOracle()
        episodes = [evaluate_autoscale(engine, use_case, eval_runs,
                                       oracle=oracle)
                    for use_case in use_cases]
        total = len(use_cases) * eval_runs
        matches = sum(episode.oracle_matches for episode in episodes)
        # Scored against themselves every episode matches, so only the
        # pooled violation % is read.
        rows.append({
            "learner": name,
            "mean_energy_mj": float(np.mean(
                [e for episode in episodes for e in episode.energies_mj])),
            "qos_violation_pct":
                summarize(episodes, episodes)["qos_violation_pct"],
            "prediction_accuracy_pct": matches / total * 100.0,
            "decide_us": engine.overhead.mean_select_us(),
            "memory_bytes": engine.memory_footprint_bytes(),
        })
    table = format_table(
        ["learner", "mean energy (mJ)", "QoS violation %",
         "vs-oracle accuracy %", "decide (us)", "memory (KB)"],
        [[r["learner"], r["mean_energy_mj"], r["qos_violation_pct"],
          r["prediction_accuracy_pct"], r["decide_us"],
          r["memory_bytes"] / 1e3] for r in rows],
        title="RL design comparison (Section IV)",
    )
    return {"rows": rows, "table": table}

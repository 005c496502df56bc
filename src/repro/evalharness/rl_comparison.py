"""Comparison of RL value-learner designs (Section IV's trade-off).

The paper selects tabular Q-learning over TD-learning and deep RL for its
low per-decision latency.  This driver trains all three learners of
``repro.core`` under the same protocol and reports decision quality
(energy vs the oracle), QoS violations, and per-decision overhead, making
the paper's design argument measurable.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.oracle import OptOracle
from repro.common import make_rng
from repro.core.alternatives import (
    LinearQFunction,
    MlpQNetwork,
    SarsaTable,
)
from repro.core.qlearning import QLearningConfig, QTable
from repro.core.reward import RewardConfig, compute_reward
from repro.core.state import table_i_state_space
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.evalharness.reporting import format_table
from repro.hardware.devices import build_device
from repro.models.zoo import build_network

__all__ = ["compare_rl_designs"]


def _epsilon_greedy(learner, state, rng, epsilon, num_actions):
    if rng.random() < epsilon:
        return int(rng.integers(num_actions)), True
    return learner.best_action(state), False


def _train_and_evaluate(learner_name, make_learner, environment,
                        use_cases, train_runs, eval_runs, seed):
    """One learner's full protocol; returns the summary row."""
    space = table_i_state_space()
    actions = environment.action_space
    config = QLearningConfig()
    reward_config = RewardConfig()
    learner = make_learner(space, len(actions), config, seed)
    rng = make_rng(seed)
    oracle = OptOracle()

    def run_case(use_case, runs, learn):
        nonlocal decide_us
        energies, violations, matches = [], 0, 0
        state = None
        pending = None  # (state, action, reward) awaiting SARSA's A'
        for _ in range(runs):
            observation = environment.observe()
            state = space.encode(use_case.network, observation)
            started = time.perf_counter()
            if learn:
                action, _ = _epsilon_greedy(learner, state, rng,
                                            config.epsilon, len(actions))
            else:
                action = learner.best_visited_action(state)
            decide_us.append((time.perf_counter() - started) * 1e6)
            target = actions.target(action)
            result = environment.execute(use_case.network, target,
                                         observation)
            reward = compute_reward(result, use_case, reward_config)
            if learn:
                next_observation = environment.observe()
                next_state = space.encode(use_case.network,
                                          next_observation)
                if isinstance(learner, SarsaTable):
                    if pending is not None:
                        prev_state, prev_action, prev_reward = pending
                        learner.update(prev_state, prev_action,
                                       prev_reward, state, action)
                    pending = (state, action, reward)
                else:
                    learner.update(state, action, reward, next_state)
            else:
                energies.append(result.energy_mj)
                violations += int(result.latency_ms > use_case.qos_ms)
                optimal = oracle.select(environment, use_case,
                                        observation, state_key=state)
                sweep = environment.estimate_all(use_case.network,
                                                 observation)
                optimal_energy_mj = float(
                    sweep.energy_mj[sweep.index_of(optimal)]
                )
                chosen_energy_mj = float(
                    sweep.energy_mj[sweep.index_of(target)]
                )
                matches += int(chosen_energy_mj <= optimal_energy_mj * 1.01)
        return energies, violations, matches

    decide_us = []
    for use_case in use_cases:
        run_case(use_case, train_runs, learn=True)
    decide_us = []  # overhead measured on the trained model only
    energies, violations, matches, total = [], 0, 0, 0
    for use_case in use_cases:
        case_energy_mj, case_violations, case_matches = run_case(
            use_case, eval_runs, learn=False
        )
        energies.extend(case_energy_mj)
        violations += case_violations
        matches += case_matches
        total += eval_runs
    return {
        "learner": learner_name,
        "mean_energy_mj": float(np.mean(energies)),
        "qos_violation_pct": violations / total * 100.0,
        "prediction_accuracy_pct": matches / total * 100.0,
        "decide_us": float(np.mean(decide_us)),
        "memory_bytes": learner.memory_bytes,
    }


def compare_rl_designs(device_name="mi8pro",
                       network_names=("mobilenet_v3", "resnet_50"),
                       train_runs=120, eval_runs=15, seed=0):
    """Q-learning vs SARSA vs linear function approximation."""
    use_cases = [use_case_for(build_network(name))
                 for name in network_names]

    learners = (
        ("q_learning",
         lambda space, n, cfg, s: QTable(space.size, n, cfg, s)),
        ("sarsa",
         lambda space, n, cfg, s: SarsaTable(space.size, n, cfg, s)),
        ("linear_q",
         lambda space, n, cfg, s: LinearQFunction(space, n, cfg, s)),
        ("mlp_q",
         lambda space, n, cfg, s: MlpQNetwork(space, n, cfg, seed=s)),
    )
    rows = []
    for name, factory in learners:
        environment = EdgeCloudEnvironment(build_device(device_name),
                                           scenario="S1", seed=seed)
        rows.append(_train_and_evaluate(
            name, factory, environment, use_cases, train_runs,
            eval_runs, seed,
        ))
    table = format_table(
        ["learner", "mean energy (mJ)", "QoS violation %",
         "vs-oracle accuracy %", "decide (us)", "memory (KB)"],
        [[r["learner"], r["mean_energy_mj"], r["qos_violation_pct"],
          r["prediction_accuracy_pct"], r["decide_us"],
          r["memory_bytes"] / 1e3] for r in rows],
        title="RL design comparison (Section IV)",
    )
    return {"rows": rows, "table": table}

"""Fleet experiment: train once, transfer everywhere (Section VI-C).

The paper transfers a Mi8Pro-trained model to the Galaxy S10e and Moto X
Force and reports a 21.2% cut in training time.  This driver formalizes
the full fleet pipeline:

1. train a *donor* engine on one device across use cases and scenarios;
2. for every other device, instantiate fresh engines with and without the
   transferred table;
3. measure, per device: convergence speed-up, post-training decision
   quality against that device's own oracle, and how many actions the
   semantic mapper could seed.

``examples/fleet_transfer.py`` is the narrated version; this module is the
measured one.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.baselines.oracle import OptOracle
from repro.core.convergence import episodes_to_converge
from repro.core.engine import AutoScale
from repro.core.transfer import transfer_q_table
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.evalharness.metrics import decision_match
from repro.evalharness.reporting import format_table
from repro.evalharness.runner import oracle_energies
from repro.hardware.devices import build_device
from repro.models.zoo import build_network

__all__ = ["fleet_transfer_study"]


def _convergence_episodes(engine, use_case, runs):
    steps = engine.run(use_case, runs)
    rewards = [step.reward for step in steps if not step.explored]
    return episodes_to_converge(rewards)


def _decision_quality(engine, use_cases, eval_runs=8):
    """Frozen-decision quality against the device's own oracle.

    Returns ``(match_pct, energy_gap_pct)``: the share of decisions
    within the 1%-energy criterion, and the mean excess energy over the
    oracle's pick.  The gap is the meaningful number for transfer — a
    transferred table is *anchored* to the donor's near-optimum (it
    carries visit counts, so no fresh sweep happens), which can miss the
    exact argmax while staying within a few percent on energy.
    """
    engine.freeze()
    env = engine.environment
    oracle = OptOracle()
    matches, checked = 0, 0
    gaps = []
    for use_case in use_cases:
        for _ in range(eval_runs):
            observation = env.observe()
            chosen = engine.predict(use_case.network, observation)
            optimal = oracle.select(env, use_case, observation)
            chosen_e, optimal_e = oracle_energies(
                env, use_case, observation, chosen, optimal)
            matches += int(decision_match(chosen_e, optimal_e))
            gaps.append(chosen_e / optimal_e - 1.0)
            checked += 1
            env.execute(use_case.network, chosen, observation)
    engine.unfreeze()
    return matches / checked * 100.0, float(np.mean(gaps)) * 100.0


def fleet_transfer_study(donor_device="mi8pro",
                         fleet_devices=("galaxy_s10e", "moto_x_force"),
                         network_names=("mobilenet_v3", "inception_v1",
                                        "resnet_50", "mobilebert"),
                         train_runs=100, seed=0):
    """Run the full fleet pipeline; returns per-device rows + a table."""
    use_cases = [use_case_for(build_network(name))
                 for name in network_names]

    donor_env = EdgeCloudEnvironment(build_device(donor_device),
                                     scenario="S1", seed=seed)
    donor = AutoScale(donor_env, seed=seed)
    for use_case in use_cases:
        donor.run(use_case, train_runs)

    rows: List[Dict] = []
    for offset, device_name in enumerate(fleet_devices, start=1):
        per_mode = {}
        for mode in ("scratch", "transfer"):
            env = EdgeCloudEnvironment(build_device(device_name),
                                       scenario="S1",
                                       seed=seed + offset)
            engine = AutoScale(env, seed=seed + offset)
            seeded = 0
            if mode == "transfer":
                seeded = transfer_q_table(
                    donor.qtable, donor.action_space,
                    engine.qtable, engine.action_space,
                )
            episodes = [_convergence_episodes(engine, case, train_runs)
                        for case in use_cases]
            quality_pct, gap_pct = _decision_quality(engine, use_cases)
            per_mode[mode] = {
                "mean_convergence": float(np.mean(episodes)),
                "quality_pct": quality_pct,
                "energy_gap_pct": gap_pct,
                "actions_seeded": seeded,
            }
        speedup = 1.0 - (per_mode["transfer"]["mean_convergence"]
                         / per_mode["scratch"]["mean_convergence"])
        rows.append({
            "device": device_name,
            "scratch_convergence": per_mode["scratch"]["mean_convergence"],
            "transfer_convergence":
                per_mode["transfer"]["mean_convergence"],
            "time_reduction_pct": speedup * 100.0,
            "scratch_quality_pct": per_mode["scratch"]["quality_pct"],
            "transfer_quality_pct": per_mode["transfer"]["quality_pct"],
            "scratch_energy_gap_pct":
                per_mode["scratch"]["energy_gap_pct"],
            "transfer_energy_gap_pct":
                per_mode["transfer"]["energy_gap_pct"],
            "actions_seeded": per_mode["transfer"]["actions_seeded"],
        })

    table = format_table(
        ["device", "scratch conv", "transfer conv", "time cut %",
         "scratch gap %", "transfer gap %", "seeded"],
        [[r["device"], r["scratch_convergence"],
          r["transfer_convergence"], r["time_reduction_pct"],
          r["scratch_energy_gap_pct"], r["transfer_energy_gap_pct"],
          r["actions_seeded"]] for r in rows],
        title=f"Fleet transfer study (donor: {donor_device})",
    )
    mean_reduction = float(np.mean([r["time_reduction_pct"]
                                    for r in rows]))
    return {"rows": rows, "mean_time_reduction_pct": mean_reduction,
            "table": table}

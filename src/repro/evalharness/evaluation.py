"""Drivers for the evaluation figures (Figs. 9-14) and Section VI-C.

These reproduce the paper's headline numbers: the 9.8x/2.3x/1.6x/2.7x
energy-efficiency improvements over Edge(CPU)/Edge(Best)/Cloud/Connected
(Fig. 9), the streaming variant (Fig. 10), the dynamic-environment sweep
(Fig. 11), accuracy-target adaptability (Fig. 12), the decision
distribution and 97.9% prediction accuracy (Fig. 13), convergence and
transfer learning (Fig. 14), and the runtime/memory overhead analysis.
Sizes are scaled for simulation speed; every driver accepts knobs to run
at paper scale.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.baselines.mosaic import MosaicScheduler
from repro.baselines.neurosurgeon import NeurosurgeonScheduler
from repro.baselines.oracle import OptOracle
from repro.baselines.static import (
    CloudOffload,
    ConnectedEdgeOffload,
    EdgeBest,
    EdgeCpuFp32,
)
from repro.common import make_rng
from repro.core.engine import AutoScale
from repro.core.qlearning import QLearningConfig
from repro.core.transfer import transfer_q_table
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.env.scenarios import build_scenario
from repro.evalharness.metrics import (
    EpisodeStats,
    decision_match,
    mape,
    summarize,
)
from repro.evalharness.reporting import format_kv, format_table
from repro.evalharness.runner import (
    RunConfig,
    evaluate_autoscale,
    evaluate_scheduler,
    loo_train_and_evaluate,
    oracle_energies,
    train_autoscale,
)
from repro.hardware.devices import build_device
from repro.models.zoo import build_network

__all__ = [
    "DEFAULT_NETWORKS",
    "baseline_suite",
    "fig9_main_results",
    "fig10_streaming",
    "fig11_dynamic",
    "fig12_accuracy_targets",
    "fig13_decisions",
    "fig14_convergence",
    "overhead_analysis",
    "ablation_states",
    "ablation_hyperparameters",
]

#: Default evaluation subset — one light CONV net, one FC-heavy net, one
#: heavy CONV net, the RC translation net.  Benchmarks widen this to the
#: full Table-III zoo.
DEFAULT_NETWORKS = ("mobilenet_v3", "inception_v1", "resnet_50",
                    "mobilebert")


def baseline_suite(include_prior_work=True):
    """The paper's comparison set (minus AutoScale and Opt)."""
    suite = [EdgeCpuFp32(), EdgeBest(), CloudOffload(),
             ConnectedEdgeOffload()]
    if include_prior_work:
        suite += [MosaicScheduler(), NeurosurgeonScheduler()]
    return suite


def _use_cases(network_names, streaming=False, accuracy_target=None):
    return [use_case_for(build_network(name), streaming=streaming,
                         accuracy_target=accuracy_target)
            for name in network_names]


def _aggregate(stats_by_sched, baseline_name="edge_cpu_fp32"):
    """Per-scheduler normalized PPW and violation over every episode."""
    baseline = stats_by_sched[baseline_name]
    return [{"scheduler": name, **summarize(episodes, baseline)}
            for name, episodes in stats_by_sched.items()]


def _run_suite(device_name, network_names, scenarios, config, schedulers,
               streaming=False, accuracy_target=None, seed=0):
    """Evaluate ``schedulers`` + AutoScale(LOO) on one device.

    Each scheduler gets a fresh environment and runs every use case in
    every scenario.  AutoScale's leave-one-out episodes are scored
    against Opt exactly when ``schedulers`` holds an
    :class:`OptOracle`: an accuracy target can leave a network with no
    feasible target, where Opt raises.
    """
    use_cases = _use_cases(network_names, streaming, accuracy_target)
    stats_by_sched: Dict[str, List[EpisodeStats]] = {}

    # --- the listed schedulers over every scenario ----------------------
    for scheduler in schedulers:
        env = EdgeCloudEnvironment(build_device(device_name),
                                   scenario=scenarios[0], seed=seed)
        scheduler.train(env, use_cases, rng=make_rng(seed))
        episodes = []
        for scenario in scenarios:
            for use_case in use_cases:
                episodes.append(evaluate_scheduler(
                    env, scheduler, use_case, config.eval_runs, scenario
                ))
        stats_by_sched[scheduler.name] = episodes

    # --- AutoScale: leave-one-out across the networks --------------------
    # One environment serves every fold: each fold re-arms it (fresh RNG
    # stream, scenario + clock reset) while the exact nominal-component
    # caches stay warm, so folds after the first skip the table builds.
    oracle = any(isinstance(s, OptOracle) for s in schedulers)
    episodes = []
    loo_env = EdgeCloudEnvironment(build_device(device_name),
                                   scenario=scenarios[0], seed=seed)
    for test_case in use_cases:
        _, per_scenario = loo_train_and_evaluate(
            loo_env, use_cases, test_case, scenarios=scenarios,
            config=config, seed=seed, oracle=oracle,
        )
        episodes.extend(per_scenario.values())
    stats_by_sched["autoscale"] = episodes
    return stats_by_sched


def _per_device_table(title, device_names, include_prior_work, **suite):
    """Figs. 9-10: one summary per device plus the formatted table."""
    per_device = {
        device_name: _aggregate(_run_suite(
            device_name,
            schedulers=baseline_suite(include_prior_work) + [OptOracle()],
            **suite,
        ))
        for device_name in device_names
    }
    rows = [
        [device, s["scheduler"], s["ppw_norm"], s["qos_violation_pct"]]
        for device, summary in per_device.items()
        for s in summary
    ]
    table = format_table(
        ["device", "scheduler", "PPW vs Edge(CPU)", "QoS violation %"],
        rows, title=title,
    )
    return {"per_device": per_device, "table": table}


def fig9_main_results(device_names=("mi8pro",),
                      network_names=DEFAULT_NETWORKS,
                      scenarios=("S1", "S2", "S3", "S4", "S5"),
                      config=RunConfig(), seed=0):
    """Fig. 9: normalized PPW + QoS violation, static environments."""
    return _per_device_table(
        "Fig. 9 - energy efficiency in static environments",
        device_names, include_prior_work=True, network_names=network_names,
        scenarios=scenarios, config=config, seed=seed,
    )


def fig10_streaming(device_names=("mi8pro",),
                    network_names=("mobilenet_v3", "inception_v1",
                                   "resnet_50"),
                    scenarios=("S1", "S2", "S4"),
                    config=RunConfig(), seed=0):
    """Fig. 10: the streaming (30 FPS) variant of Fig. 9."""
    return _per_device_table(
        "Fig. 10 - streaming scenario (30 FPS)",
        device_names, include_prior_work=False,
        network_names=network_names,
        scenarios=scenarios, config=config, streaming=True, seed=seed,
    )


def fig11_dynamic(device_name="mi8pro", network_names=DEFAULT_NETWORKS,
                  scenarios=("S1", "S2", "S3", "S4", "S5",
                             "D1", "D2", "D3", "D4"),
                  config=RunConfig(), seed=0):
    """Fig. 11: static + dynamic environments, per-scenario breakdown."""
    stats = _run_suite(device_name, network_names, scenarios, config,
                       baseline_suite(include_prior_work=False)
                       + [OptOracle()], seed=seed)
    baseline = stats["edge_cpu_fp32"]
    rows = []
    per_scenario = {}
    for name, episodes in stats.items():
        for scenario in scenarios:
            entry = {"scheduler": name, "scenario": scenario, **summarize(
                [e for e in episodes if e.scenario == scenario], baseline,
            )}
            per_scenario.setdefault(scenario, []).append(entry)
            rows.append([scenario, name, entry["ppw_norm"],
                         entry["qos_violation_pct"]])
    table = format_table(
        ["scenario", "scheduler", "PPW vs Edge(CPU)", "QoS violation %"],
        rows, title="Fig. 11 - adaptability to stochastic variance",
    )
    return {"per_scenario": per_scenario, "overall": _aggregate(stats),
            "table": table}


def fig12_accuracy_targets(device_name="mi8pro",
                           network_names=("mobilenet_v3", "inception_v1",
                                          "resnet_50"),
                           targets=(None, 50.0, 65.0, 70.0),
                           scenarios=("S1",), config=RunConfig(), seed=0):
    """Fig. 12: AutoScale under different inference-accuracy targets.

    Runs without Opt: a strict target can leave a network with no
    feasible target, where Opt raises.
    """
    rows = []
    results = {}
    for accuracy_target in targets:
        stats = _run_suite(device_name, network_names, scenarios, config,
                           [EdgeCpuFp32()], accuracy_target=accuracy_target,
                           seed=seed)
        label = "none" if accuracy_target is None else f"{accuracy_target:g}"
        entry = {"accuracy_target": label,
                 **summarize(stats["autoscale"], stats["edge_cpu_fp32"])}
        results[label] = entry
        rows.append([label, entry["ppw_norm"], entry["qos_violation_pct"]])
    table = format_table(
        ["accuracy target", "PPW vs Edge(CPU)", "QoS violation %"],
        rows, title="Fig. 12 - adaptability to inference quality targets",
    )
    return {"results": results, "table": table}


def _location_shares(episodes):
    """Fraction of decisions per location (the target key's prefix)."""
    counts = {"local": 0, "cloud": 0, "connected": 0}
    for stats in episodes:
        for key, count in stats.decisions.items():
            counts[key.split("/")[0]] += count
    total = sum(counts.values())
    return {location: count / total for location, count in counts.items()}


def fig13_decisions(device_names=("mi8pro", "galaxy_s10e", "moto_x_force"),
                    network_names=DEFAULT_NETWORKS,
                    scenarios=("S1", "S4"), config=RunConfig(), seed=0):
    """Fig. 13: decision distribution of AutoScale vs Opt + accuracy."""
    per_device = {}
    rows = []
    for device_name in device_names:
        stats = _run_suite(device_name, network_names, scenarios, config,
                           [OptOracle()], seed=seed)
        autoscale = stats["autoscale"]
        matches = sum(episode.oracle_matches for episode in autoscale)
        checked = sum(episode.oracle_checked for episode in autoscale)
        entry = {
            "autoscale_shares": _location_shares(autoscale),
            "opt_shares": _location_shares(stats["opt"]),
            "prediction_accuracy_pct": matches / checked * 100.0,
        }
        per_device[device_name] = entry
        for location in ("local", "cloud", "connected"):
            rows.append([
                device_name, location,
                entry["autoscale_shares"][location] * 100.0,
                entry["opt_shares"][location] * 100.0,
            ])
    table = format_table(
        ["device", "location", "AutoScale %", "Opt %"],
        rows, title="Fig. 13 - execution-scaling decision distribution",
    )
    return {"per_device": per_device, "table": table}


def fig14_convergence(source_device="mi8pro",
                      transfer_devices=("galaxy_s10e", "moto_x_force"),
                      network_names=DEFAULT_NETWORKS,
                      scenarios=("S1",), train_runs=60, seed=0):
    """Fig. 14: reward convergence; transfer learning accelerates it."""
    from repro.core.convergence import episodes_to_converge

    use_cases = _use_cases(network_names)

    def scratch_engine(device_name, seed_offset=0):
        env = EdgeCloudEnvironment(build_device(device_name),
                                   scenario=scenarios[0],
                                   seed=seed + seed_offset)
        return AutoScale(env, seed=seed + seed_offset)

    # --- train the source device from scratch ---------------------------
    source = scratch_engine(source_device)
    scratch_curves = {}
    convergence = {}
    for use_case in use_cases:
        steps = source.run(use_case, train_runs)
        rewards = [step.reward for step in steps if not step.explored]
        scratch_curves[use_case.name] = rewards
        convergence[(source_device, "scratch", use_case.name)] = \
            episodes_to_converge(rewards)

    results = {"source": source_device, "curves": {"scratch": scratch_curves}}
    rows = [[source_device, "scratch", use_case.name,
             convergence[(source_device, "scratch", use_case.name)]]
            for use_case in use_cases]

    # --- transfer to the other devices ----------------------------------
    speedups = []
    for offset, device_name in enumerate(transfer_devices, start=1):
        for mode in ("scratch", "transfer"):
            engine = scratch_engine(device_name, offset * 10)
            if mode == "transfer":
                transfer_q_table(source.qtable, source.action_space,
                                 engine.qtable, engine.action_space)
            for use_case in use_cases:
                steps = engine.run(use_case, train_runs)
                rewards = [step.reward for step in steps
                           if not step.explored]
                convergence[(device_name, mode, use_case.name)] = \
                    episodes_to_converge(rewards)
                rows.append([device_name, mode, use_case.name,
                             convergence[(device_name, mode,
                                          use_case.name)]])
        scratch_mean = np.mean([
            convergence[(device_name, "scratch", c.name)]
            for c in use_cases
        ])
        transfer_mean = np.mean([
            convergence[(device_name, "transfer", c.name)]
            for c in use_cases
        ])
        speedups.append(1.0 - transfer_mean / scratch_mean)
    results["convergence"] = convergence
    results["transfer_time_reduction_pct"] = float(np.mean(speedups)) * 100.0
    results["table"] = format_table(
        ["device", "mode", "use case", "episodes to converge"],
        rows, title="Fig. 14 - convergence and learning transfer",
    )
    return results


def overhead_analysis(device_name="mi8pro",
                      network_names=("mobilenet_v3",), runs=120, seed=0):
    """Section VI-C: runtime, energy, and memory overhead of AutoScale."""
    use_cases = _use_cases(network_names)
    env = EdgeCloudEnvironment(build_device(device_name), scenario="S1",
                               seed=seed)
    engine = AutoScale(env, seed=seed)
    train_autoscale(engine, use_cases, ("S1",), runs)
    train_select = engine.overhead.mean_select_us()
    train_update = engine.overhead.mean_update_us()

    engine.freeze()
    engine.overhead.select_us.clear()
    for _ in range(runs):
        engine.step(use_cases[0])
    infer_select = engine.overhead.mean_select_us()

    # Energy-estimator error (paper: MAPE 7.3%).  Measured across the
    # variance conditions — the estimator's pre-measured power tables
    # miss co-runner bus/DRAM power, which is the error's main source.
    estimator_pairs = ([], [])
    rng = make_rng(seed)
    for scenario in ("S1", "S2", "S3", "S4"):
        env.scenario = build_scenario(scenario)
        env.rewind_clock()
        targets = env.targets()
        for _ in range(runs // 4):
            observation = env.observe()
            target = targets[int(rng.integers(len(targets)))]
            result = env.execute(use_cases[0].network, target,
                                 observation)
            estimator_pairs[0].append(result.estimated_energy_mj)
            estimator_pairs[1].append(result.energy_mj)
    estimator_mape = mape(*estimator_pairs)

    float16 = AutoScale(
        env, config=QLearningConfig(dtype="float16"), seed=seed
    )
    results = {
        "train_overhead_us": train_select + train_update,
        "inference_overhead_us": infer_select,
        "qtable_bytes_float32": engine.memory_footprint_bytes(),
        "qtable_bytes_float16": float16.memory_footprint_bytes(),
        "estimator_mape_pct": estimator_mape,
    }
    results["table"] = format_kv(
        [("training overhead (us/inference)", results["train_overhead_us"]),
         ("trained-table overhead (us)", results["inference_overhead_us"]),
         ("Q-table size float32 (MB)",
          results["qtable_bytes_float32"] / 1e6),
         ("Q-table size float16 (MB)",
          results["qtable_bytes_float16"] / 1e6),
         ("energy-estimator MAPE (%)", results["estimator_mape_pct"])],
        title="Section VI-C - overhead analysis",
    )
    return results


def ablation_states(device_name="mi8pro", network_names=DEFAULT_NETWORKS,
                    scenarios=("S1", "S2", "S3", "S4", "S5"),
                    eval_runs=12, train_runs=100, seed=0):
    """State ablation (Section IV-A): drop one feature, measure accuracy.

    The paper reports that removing any single state degrades prediction
    accuracy by 32.1% on average.  Protocol: train a full engine across
    every scenario, *freeze* it, then score its greedy decisions against
    Opt in each scenario.  Freezing matters — with online adaptation an
    ablated engine simply re-learns each static scenario and the merged
    states cost nothing; a deployed (trained) table cannot do that, and a
    dropped feature makes it blind to that dimension of variance.
    """
    from repro.core.state import table_i_state_space

    full_space = table_i_state_space()
    feature_names = [None] + [f.name for f in full_space.features]
    use_cases = _use_cases(network_names)
    oracle = OptOracle()
    rows, results = [], {}
    for dropped in feature_names:
        space = full_space if dropped is None \
            else full_space.without(dropped)
        env = EdgeCloudEnvironment(build_device(device_name),
                                   scenario=scenarios[0], seed=seed)
        engine = AutoScale(env, seed=seed,
                           state_space=_ablated_space(space, dropped))
        train_autoscale(engine, use_cases, scenarios, train_runs)
        engine.freeze()
        matches, checked = 0, 0
        for scenario in scenarios:
            env.scenario = build_scenario(scenario)
            env.rewind_clock()
            for use_case in use_cases:
                for _ in range(eval_runs):
                    observation = env.observe()
                    chosen = engine.predict(use_case.network, observation)
                    optimal = oracle.select(env, use_case, observation)
                    matches += int(decision_match(*oracle_energies(
                        env, use_case, observation, chosen, optimal)))
                    checked += 1
                    env.execute(use_case.network, chosen, observation)
        accuracy = matches / checked * 100.0
        label = dropped or "full"
        results[label] = accuracy
        rows.append([label, accuracy])
    table = format_table(
        ["dropped feature", "prediction accuracy %"], rows,
        title="State-feature ablation",
    )
    return {"results": results, "table": table}


def _ablated_space(space, dropped):
    """Wrap a reduced StateSpace so encode() still takes Table-I inputs."""
    if dropped is None:
        return space

    class _Adapter:
        """Encodes with the full raw tuple but only surviving features."""

        def __init__(self, inner):
            self._inner = inner
            self.size = inner.size
            self.features = inner.features

        def encode(self, network, observation):
            raw_by_name = {
                "s_conv": network.num_conv,
                "s_fc": network.num_fc,
                "s_rc": network.num_rc,
                "s_mac": network.mega_macs,
                "s_co_cpu": observation.cpu_util * 100.0,
                "s_co_mem": observation.mem_util * 100.0,
                "s_rssi_w": observation.rssi_wlan_dbm,
                "s_rssi_p": observation.rssi_p2p_dbm,
            }
            bins = tuple(
                feature.discretize(raw_by_name[feature.name])
                for feature in self._inner.features
            )
            return self._inner.index_of(bins)

        def without(self, name):
            return self._inner.without(name)

    return _Adapter(space)


def ablation_hyperparameters(device_name="mi8pro",
                             network_name="mobilenet_v3",
                             values=(0.1, 0.5, 0.9), train_runs=60,
                             seed=0):
    """Section V-C's sensitivity grid over learning rate and discount."""
    use_case = use_case_for(build_network(network_name))
    rows, results = [], {}
    for learning_rate in values:
        for discount in values:
            env = EdgeCloudEnvironment(build_device(device_name),
                                       scenario="S1", seed=seed)
            engine = AutoScale(
                env, seed=seed,
                config=QLearningConfig(learning_rate=learning_rate,
                                       discount=discount),
            )
            engine.run(use_case, train_runs)
            engine.freeze()
            stats = evaluate_autoscale(engine, use_case, eval_runs=20)
            results[(learning_rate, discount)] = stats.mean_energy_mj
            rows.append([learning_rate, discount, stats.mean_energy_mj,
                         stats.qos_violation_pct])
    table = format_table(
        ["learning rate", "discount", "mean energy (mJ)",
         "QoS violation %"],
        rows, title="Hyperparameter sensitivity (Section V-C)",
    )
    return {"results": results, "table": table}

"""Drivers for the motivation/characterization figures (Figs. 2-7).

Each function reproduces one figure's data as structured rows plus a
formatted table, using the deterministic nominal model where the paper
characterizes steady-state behaviour and noisy executions where it
measures predictors.
"""

from __future__ import annotations

from repro.baselines.bayesian import BayesianOptScheduler
from repro.baselines.classification import knn_scheduler, svm_scheduler
from repro.baselines.oracle import OptOracle
from repro.baselines.regression import (
    linear_regression_scheduler,
    svr_scheduler,
)
from repro.baselines.static import EdgeCpuFp32
from repro.common import SimulationError, make_rng
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.env.target import Location
from repro.evalharness.metrics import (
    EpisodeStats,
    mape,
    misclassification_ratio,
    summarize,
)
from repro.evalharness.reporting import format_table
from repro.hardware.devices import build_device
from repro.models.layers import LayerType
from repro.models.quantization import Precision
from repro.models.zoo import build_network

__all__ = [
    "representative_targets",
    "fig2_characterization",
    "fig3_layer_latency",
    "fig4_accuracy_tradeoff",
    "fig5_interference",
    "fig6_signal",
    "fig7_predictors",
]


def representative_targets(environment):
    """One target per distinct (location, role, precision), at top V/F."""
    chosen = {}
    for target in environment.targets():
        slot = (target.location, target.role, target.precision)
        best = chosen.get(slot)
        if best is None or target.vf_index > best.vf_index:
            chosen[slot] = target
    return list(chosen.values())


def _edge_cpu_key(environment):
    for target in representative_targets(environment):
        if (target.location is Location.LOCAL and target.role == "cpu"
                and target.precision is Precision.FP32):
            return target
    raise SimulationError("no local CPU FP32 target")


def fig2_characterization(
    device_names=("mi8pro", "galaxy_s10e", "moto_x_force"),
    network_names=("inception_v1", "mobilenet_v3", "mobilebert"),
    seed=0,
):
    """Fig. 2: PPW and latency of three networks across execution targets.

    PPW is normalized to Edge (CPU FP32) and latency to the QoS target,
    exactly as in the figure.
    """
    rows = []
    for device_name in device_names:
        env = EdgeCloudEnvironment(build_device(device_name),
                                   scenario="S1", seed=seed)
        observation = env.observe()
        baseline_target = _edge_cpu_key(env)
        for network_name in network_names:
            use_case = use_case_for(build_network(network_name))
            baseline = env.estimate(use_case.network, baseline_target,
                                    observation)
            for target in representative_targets(env):
                result = env.estimate(use_case.network, target, observation)
                rows.append({
                    "device": device_name,
                    "network": network_name,
                    "target": target.key,
                    "ppw_norm": baseline.energy_mj / result.energy_mj,
                    "latency_norm": result.latency_ms / use_case.qos_ms,
                    "meets_qos": result.latency_ms <= use_case.qos_ms,
                })
    table = format_table(
        ["device", "network", "target", "PPW (norm)", "lat/QoS", "QoS ok"],
        [[r["device"], r["network"], r["target"],
          r["ppw_norm"], r["latency_norm"],
          "yes" if r["meets_qos"] else "no"] for r in rows],
        title="Fig. 2 - optimal edge-cloud execution vs NN and device",
    )
    return {"rows": rows, "table": table}


def fig3_layer_latency(device_name="mi8pro",
                       network_names=("inception_v1", "mobilenet_v3"),
                       seed=0):
    """Fig. 3: cumulative per-layer-type latency per mobile processor.

    Latencies are normalized to the CPU, reproducing the figure's message:
    FC layers run far slower on co-processors, CONV layers faster.
    """
    device = build_device(device_name)
    groups = {"conv": (LayerType.CONV,), "fc": (LayerType.FC,),
              "rc": (LayerType.RC,),
              "other": (LayerType.POOL, LayerType.NORM, LayerType.SOFTMAX,
                        LayerType.ARGMAX, LayerType.DROPOUT)}
    rows = []
    for network_name in network_names:
        network = build_network(network_name)
        per_role = {}
        for role in device.soc.roles:
            proc = device.soc.processor(role)
            precision = (Precision.FP32 if proc.supports(Precision.FP32)
                         else Precision.INT8)
            sums = {}
            for group, kinds in groups.items():
                layers = [l for l in network.layers if l.kind in kinds]
                sums[group] = proc.layers_latency_ms(layers, precision) \
                    if layers else 0.0
            per_role[role] = sums
        cpu_total = sum(per_role["cpu"].values())
        for role, sums in per_role.items():
            rows.append({
                "network": network_name,
                "processor": role,
                **{f"{g}_ms": v for g, v in sums.items()},
                "total_norm_cpu": sum(sums.values()) / cpu_total,
            })
    table = format_table(
        ["network", "proc", "conv ms", "fc ms", "rc ms", "other ms",
         "total/CPU"],
        [[r["network"], r["processor"], r["conv_ms"], r["fc_ms"],
          r["rc_ms"], r["other_ms"], r["total_norm_cpu"]] for r in rows],
        title="Fig. 3 - per-layer-type latency by processor",
    )
    return {"rows": rows, "table": table}


def fig4_accuracy_tradeoff(device_name="mi8pro",
                           network_names=("inception_v1", "mobilenet_v3"),
                           accuracy_targets=(50.0, 65.0), seed=0):
    """Fig. 4: PPW vs accuracy per target; the optimum shifts with the
    accuracy requirement."""
    env = EdgeCloudEnvironment(build_device(device_name), scenario="S1",
                               seed=seed)
    observation = env.observe()
    baseline_target = _edge_cpu_key(env)
    rows, optima = [], []
    for network_name in network_names:
        use_case = use_case_for(build_network(network_name))
        baseline = env.estimate(use_case.network, baseline_target,
                                observation)
        candidates = []
        for target in representative_targets(env):
            result = env.estimate(use_case.network, target, observation)
            rows.append({
                "network": network_name,
                "target": target.key,
                "ppw_norm": baseline.energy_mj / result.energy_mj,
                "accuracy_pct": result.accuracy_pct,
                "meets_qos": result.latency_ms <= use_case.qos_ms,
            })
            candidates.append((target, result))
        for accuracy_target in accuracy_targets:
            feasible = [
                (t, r) for t, r in candidates
                if r.accuracy_pct >= accuracy_target
                and r.latency_ms <= use_case.qos_ms
            ]
            pool = feasible or [(t, r) for t, r in candidates
                                if r.accuracy_pct >= accuracy_target]
            best = min(pool, key=lambda tr: tr[1].energy_mj)
            optima.append({
                "network": network_name,
                "accuracy_target": accuracy_target,
                "optimal_target": best[0].key,
            })
    table = format_table(
        ["network", "target", "PPW (norm)", "accuracy %", "QoS ok"],
        [[r["network"], r["target"], r["ppw_norm"], r["accuracy_pct"],
          "yes" if r["meets_qos"] else "no"] for r in rows],
        title="Fig. 4 - energy efficiency vs inference accuracy",
    )
    return {"rows": rows, "optima": optima, "table": table}


def fig5_interference(device_name="mi8pro", network_name="mobilenet_v3",
                      seed=0):
    """Fig. 5: co-runner interference shifts the optimal target."""
    use_case = use_case_for(build_network(network_name))
    rows, optima = [], []
    # The figure normalizes PPW to Edge (CPU) *with no co-running app*.
    quiet_env = EdgeCloudEnvironment(build_device(device_name),
                                     scenario="S1", seed=seed)
    baseline = quiet_env.estimate(use_case.network,
                                  _edge_cpu_key(quiet_env),
                                  quiet_env.observe())
    for scenario in ("S1", "S2", "S3"):
        env = EdgeCloudEnvironment(build_device(device_name),
                                   scenario=scenario, seed=seed)
        observation = env.observe()
        best = None
        for target in representative_targets(env):
            result = env.estimate(use_case.network, target, observation)
            rows.append({
                "scenario": scenario,
                "target": target.key,
                "ppw_norm": baseline.energy_mj / result.energy_mj,
                "latency_norm": result.latency_ms / use_case.qos_ms,
            })
            rank = (result.latency_ms > use_case.qos_ms, result.energy_mj)
            if best is None or rank < best[0]:
                best = (rank, target.key)
        optima.append({"scenario": scenario, "optimal_target": best[1]})
    table = format_table(
        ["scenario", "target", "PPW (norm)", "lat/QoS"],
        [[r["scenario"], r["target"], r["ppw_norm"], r["latency_norm"]]
         for r in rows],
        title=f"Fig. 5 - interference impact ({network_name})",
    )
    return {"rows": rows, "optima": optima, "table": table}


def fig6_signal(device_name="mi8pro", network_name="resnet_50", seed=0):
    """Fig. 6: signal-strength variation shifts the optimal target.

    S1 = both links strong; S4 = weak Wi-Fi; S4+S5 = both weak (emulated
    with a combined scenario).
    """
    from repro.env.scenarios import Scenario
    from repro.interference.corunner import no_corunner
    from repro.wireless.signal import (
        ConstantSignal,
        WEAK_RSSI_DBM_TYPICAL,
    )

    both_weak = Scenario(
        "S4+S5", "weak Wi-Fi and weak Wi-Fi Direct", no_corunner(),
        ConstantSignal(WEAK_RSSI_DBM_TYPICAL),
        ConstantSignal(WEAK_RSSI_DBM_TYPICAL),
    )
    use_case = use_case_for(build_network(network_name))
    rows, optima = [], []
    for scenario in ("S1", "S4", both_weak):
        env = EdgeCloudEnvironment(build_device(device_name),
                                   scenario=scenario, seed=seed)
        observation = env.observe()
        scenario_name = env.scenario.name
        best = None
        best_local = None
        for target in representative_targets(env):
            result = env.estimate(use_case.network, target, observation)
            if target.location is Location.LOCAL:
                if best_local is None or result.energy_mj < best_local:
                    best_local = result.energy_mj
            rank = (result.latency_ms > use_case.qos_ms, result.energy_mj)
            if best is None or rank < best[0]:
                best = (rank, target, result)
        for target in representative_targets(env):
            result = env.estimate(use_case.network, target, observation)
            rows.append({
                "scenario": scenario_name,
                "target": target.key,
                "ppw_norm_best_local": best_local / result.energy_mj,
                "latency_norm": result.latency_ms / use_case.qos_ms,
            })
        optima.append({"scenario": scenario_name,
                       "optimal_target": best[1].key})
    table = format_table(
        ["scenario", "target", "PPW/best-edge", "lat/QoS"],
        [[r["scenario"], r["target"], r["ppw_norm_best_local"],
          r["latency_norm"]] for r in rows],
        title=f"Fig. 6 - signal-strength impact ({network_name})",
    )
    return {"rows": rows, "optima": optima, "table": table}


def fig7_predictors(device_name="mi8pro",
                    network_names=("mobilenet_v3", "inception_v1",
                                   "resnet_50", "mobilebert"),
                    samples_per_case=25, eval_runs=20, seed=0):
    """Fig. 7: prediction-based approaches vs Opt.

    Trains LR/SVR/SVM/KNN/BO on mixed-variance profiling data, then
    reports (a) regression/BO MAPE with and without runtime variance,
    (b) SVM/KNN misclassification, and (c) normalized PPW plus QoS
    violation per approach against Edge (CPU) and Opt.
    """
    rng = make_rng(seed)
    use_cases = [use_case_for(build_network(name))
                 for name in network_names]

    def fresh_env(scenario, offset=0):
        return EdgeCloudEnvironment(build_device(device_name),
                                    scenario=scenario, seed=seed + offset)

    # --- train every predictor on pooled mixed-variance data -----------
    lr, svr = linear_regression_scheduler(), svr_scheduler()
    svm, knn = svm_scheduler(), knn_scheduler()
    bo = BayesianOptScheduler(warmup=8, iterations=6, seed=seed)
    training_envs = [fresh_env(scenario, offset)
                     for offset, scenario in
                     enumerate(("S1", "S2", "S3", "S4"))]
    per_env = max(4, samples_per_case // 4)
    for scheduler in (lr, svr, svm, knn):
        scheduler.train(training_envs, use_cases, rng=rng,
                        samples_per_case=per_env)
    bo.train([fresh_env("S1", 9), fresh_env("S3", 10),
              fresh_env("S4", 11)], use_cases)

    # --- MAPE with/without variance ------------------------------------
    mapes = {}
    for label, scenarios in (("no_variance", ("S1",)),
                             ("variance", ("S2", "S3", "S4"))):
        for scheduler in (lr, svr, bo):
            predicted, measured = [], []
            for offset, scenario in enumerate(scenarios):
                env = fresh_env(scenario, 20 + offset)
                targets = env.targets()
                for use_case in use_cases:
                    for _ in range(eval_runs // len(scenarios) + 1):
                        observation = env.observe()
                        target = targets[int(rng.integers(len(targets)))]
                        result = env.execute(use_case.network, target,
                                             observation)
                        energy_pred_mj, _ = scheduler.predict_energy_latency(
                            use_case, observation, [target], env
                        )
                        predicted.append(float(energy_pred_mj[0]))
                        measured.append(result.energy_mj)
            mapes[(scheduler.name, label)] = mape(predicted, measured)

    # --- classifier misclassification under variance --------------------
    from repro.baselines.classification import slot_of

    # Evaluation deliberately includes variance conditions absent from
    # the training campaign (S5, D3): a fielded predictor faces contexts
    # it never profiled, which is where memorization-style classifiers
    # lose their apparent accuracy (Section III-C's argument).
    oracle = OptOracle()
    misclass = {}
    for scheduler in (svm, knn):
        chosen_labels, optimal_labels = [], []
        for offset, scenario in enumerate(("S2", "S4", "S5", "D3")):
            env = fresh_env(scenario, 40 + offset)
            for use_case in use_cases:
                for _ in range(eval_runs // 4 + 1):
                    observation = env.observe()
                    chosen = scheduler.select(env, use_case, observation)
                    optimal = oracle.select(env, use_case, observation)
                    chosen_labels.append(slot_of(chosen))
                    optimal_labels.append(slot_of(optimal))
                    env.execute(use_case.network, chosen, observation)
        misclass[scheduler.name] = misclassification_ratio(
            chosen_labels, optimal_labels
        )

    # --- end-to-end PPW + QoS violation ---------------------------------
    episodes_by_sched = {}
    for scheduler in [EdgeCpuFp32(), lr, svr, svm, knn, bo, OptOracle()]:
        episodes = episodes_by_sched[scheduler.name] = []
        for offset, scenario in enumerate(("S1", "S2", "S4", "S5",
                                           "D3")):
            env = fresh_env(scenario, 60 + offset)
            for use_case in use_cases:
                stats = EpisodeStats(scheduler.name, use_case.name,
                                     scenario, qos_ms=use_case.qos_ms)
                for _ in range(max(2, eval_runs // 4)):
                    observation = env.observe()
                    stats.record(scheduler.execute(env, use_case,
                                                   observation))
                episodes.append(stats)
    baseline = episodes_by_sched["edge_cpu_fp32"]
    summary = [{"scheduler": name, **summarize(episodes, baseline)}
               for name, episodes in episodes_by_sched.items()]

    table = format_table(
        ["scheduler", "PPW vs Edge(CPU)", "QoS violation %"],
        [[s["scheduler"], s["ppw_norm"], s["qos_violation_pct"]]
         for s in summary],
        title="Fig. 7 - prediction-based approaches vs Opt",
    )
    return {"mape": mapes, "misclassification": misclass,
            "summary": summary, "table": table}

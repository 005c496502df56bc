"""Fine-grained parameter sweeps around the paper's figures.

The paper's characterization figures sample a handful of conditions
(strong/weak signal, three co-runner intensities, two QoS targets).  These
sweeps trace the full curves — where exactly the cloud/edge crossover
falls as RSSI degrades, how the optimum migrates as a co-runner ramps up,
and how the DVFS sweet spot moves with the deadline — both for analysis
and as a stress test of the simulator's monotonicity.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.oracle import OptOracle
from repro.env.environment import EdgeCloudEnvironment
from repro.env.observation import Observation
from repro.env.qos import UseCase, use_case_for
from repro.evalharness.reporting import format_table
from repro.hardware.devices import build_device
from repro.models.zoo import build_network

__all__ = [
    "signal_strength_sweep",
    "interference_sweep",
    "qos_sweep",
    "epsilon_sweep",
    "radio_comparison",
]


def _quiet_env(device_name, seed=0):
    return EdgeCloudEnvironment(build_device(device_name), scenario="S1",
                                seed=seed)


def signal_strength_sweep(network_name="resnet_50", device_name="mi8pro",
                          rssi_grid_dbm=None, seed=0):
    """Fig. 6 at fine grain: the optimum as Wi-Fi RSSI degrades."""
    if rssi_grid_dbm is None:
        rssi_grid_dbm = np.arange(-55.0, -95.0, -2.5)
    env = _quiet_env(device_name, seed)
    use_case = use_case_for(build_network(network_name))
    oracle = OptOracle()
    rows = []
    for rssi_dbm in rssi_grid_dbm:
        observation = Observation(rssi_wlan_dbm=float(rssi_dbm))
        target, nominal = oracle.evaluate(env, use_case, observation)
        rows.append({
            "rssi_dbm": float(rssi_dbm),
            "optimal_target": target.key,
            "energy_mj": nominal.energy_mj,
            "latency_ms": nominal.latency_ms,
            "meets_qos": nominal.latency_ms <= use_case.qos_ms,
        })
    crossovers = [
        (previous["rssi_dbm"], current["rssi_dbm"])
        for previous, current in zip(rows, rows[1:])
        if previous["optimal_target"].split("/")[0]
        != current["optimal_target"].split("/")[0]
    ]
    table = format_table(
        ["RSSI (dBm)", "optimal target", "E (mJ)", "lat (ms)", "QoS"],
        [[r["rssi_dbm"], r["optimal_target"], r["energy_mj"],
          r["latency_ms"], "ok" if r["meets_qos"] else "VIO"]
         for r in rows],
        title=f"Signal-strength sweep ({network_name}, {device_name})",
    )
    return {"rows": rows, "crossovers": crossovers, "table": table}


def interference_sweep(network_name="mobilenet_v3", device_name="mi8pro",
                       cpu_grid=None, seed=0):
    """Fig. 5 at fine grain: the optimum as a co-runner's CPU load ramps."""
    if cpu_grid is None:
        cpu_grid = np.linspace(0.0, 1.0, 11)
    env = _quiet_env(device_name, seed)
    use_case = use_case_for(build_network(network_name))
    oracle = OptOracle()
    rows = []
    for cpu_util in cpu_grid:
        observation = Observation(cpu_util=float(cpu_util), mem_util=0.1)
        target, nominal = oracle.evaluate(env, use_case, observation)
        rows.append({
            "cpu_util": float(cpu_util),
            "optimal_target": target.key,
            "energy_mj": nominal.energy_mj,
        })
    table = format_table(
        ["co-runner CPU", "optimal target", "E (mJ)"],
        [[r["cpu_util"], r["optimal_target"], r["energy_mj"]]
         for r in rows],
        title=f"Interference sweep ({network_name}, {device_name})",
    )
    return {"rows": rows, "table": table}


def qos_sweep(network_name="inception_v1", device_name="mi8pro",
              qos_grid=(20.0, 33.3, 50.0, 75.0, 100.0, 150.0), seed=0):
    """How the optimum (and its DVFS point) relaxes with the deadline."""
    env = _quiet_env(device_name, seed)
    network = build_network(network_name)
    oracle = OptOracle()
    observation = Observation()
    rows = []
    for qos_ms in qos_grid:
        use_case = UseCase(f"{network_name}@{qos_ms:g}", network,
                           qos_ms=qos_ms)
        target, nominal = oracle.evaluate(env, use_case, observation)
        rows.append({
            "qos_ms": qos_ms,
            "optimal_target": target.key,
            "energy_mj": nominal.energy_mj,
            "latency_ms": nominal.latency_ms,
            "meets_qos": nominal.latency_ms <= qos_ms,
        })
    table = format_table(
        ["QoS (ms)", "optimal target", "E (mJ)", "lat (ms)"],
        [[r["qos_ms"], r["optimal_target"], r["energy_mj"],
          r["latency_ms"]] for r in rows],
        title=f"QoS sweep ({network_name}, {device_name})",
    )
    return {"rows": rows, "table": table}


def epsilon_sweep(network_name="mobilenet_v3", device_name="mi8pro",
                  epsilons=(0.01, 0.05, 0.1, 0.3), train_runs=120,
                  eval_runs=15, seed=0):
    """Exploration-rate sensitivity (the paper fixes epsilon = 0.1)."""
    from repro.core.engine import AutoScale
    from repro.core.qlearning import QLearningConfig

    use_case = use_case_for(build_network(network_name))
    rows = []
    for epsilon in epsilons:
        env = _quiet_env(device_name, seed)
        engine = AutoScale(env, seed=seed,
                           config=QLearningConfig(epsilon=epsilon))
        engine.run(use_case, train_runs)
        engine.freeze()
        energies = [engine.step(use_case).result.energy_mj
                    for _ in range(eval_runs)]
        rows.append({
            "epsilon": epsilon,
            "mean_energy_mj": float(np.mean(energies)),
            "converged_at": engine.convergence.converged_at,
        })
    table = format_table(
        ["epsilon", "mean energy (mJ)", "policy settled at"],
        [[r["epsilon"], r["mean_energy_mj"],
          r["converged_at"] if r["converged_at"] is not None else "n/a"]
         for r in rows],
        title=f"Exploration-rate sweep ({network_name})",
    )
    return {"rows": rows, "table": table}


def radio_comparison(network_name="inception_v1", device_name="mi8pro",
                     rssi_dbm=-60.0, seed=0):
    """Cloud offloading cost over Wi-Fi vs LTE for one network.

    Quantifies why the radio profile matters: the LTE path's longer RTT
    and tail state shift the edge/cloud break-even toward the edge.
    """
    from repro.env.target import ExecutionTarget, Location
    from repro.models.quantization import Precision
    from repro.wireless.profiles import default_lte, default_wifi

    use_case = use_case_for(build_network(network_name))
    observation = Observation(rssi_wlan_dbm=rssi_dbm)
    cloud = ExecutionTarget(Location.CLOUD, "gpu", Precision.FP32)
    rows = []
    for label, link in (("wifi", default_wifi()), ("lte", default_lte())):
        env = EdgeCloudEnvironment(build_device(device_name),
                                   scenario="S1", wifi=link, seed=seed)
        sweep = env.estimate_all(use_case.network, observation)
        cloud_index = sweep.index_of(cloud)
        best_local_mj = float(np.min(
            sweep.energy_mj[env.action_space.local]))
        rows.append({
            "radio": label,
            "cloud_latency_ms": float(sweep.latency_ms[cloud_index]),
            "cloud_energy_mj": float(sweep.energy_mj[cloud_index]),
            "best_local_energy_mj": best_local_mj,
            "cloud_wins": float(sweep.energy_mj[cloud_index]) < best_local_mj,
        })
    table = format_table(
        ["radio", "cloud lat (ms)", "cloud E (mJ)", "best local E (mJ)",
         "cloud wins"],
        [[r["radio"], r["cloud_latency_ms"], r["cloud_energy_mj"],
          r["best_local_energy_mj"], "yes" if r["cloud_wins"] else "no"]
         for r in rows],
        title=f"Radio-path comparison ({network_name}, {device_name})",
    )
    return {"rows": rows, "table": table}

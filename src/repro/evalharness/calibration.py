"""Calibration self-test: does the simulator still tell the paper's story?

The reproduction's validity rests on a set of qualitative orderings from
the paper's Section III characterization (DESIGN.md's substitution table).
This module re-checks every one of them against the current calibration
and returns a pass/fail checklist — run it after touching any number in
``repro.hardware``, ``repro.wireless``, or ``repro.models``.

``python -m pytest tests/evalharness/test_calibration.py`` runs the same
checks in CI fashion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.baselines.oracle import OptOracle
from repro.env.environment import EdgeCloudEnvironment
from repro.env.observation import Observation
from repro.env.qos import use_case_for
from repro.evalharness.reporting import format_table
from repro.hardware.devices import build_device
from repro.models.zoo import build_network

__all__ = ["CalibrationCheck", "run_calibration_checks"]


@dataclass(frozen=True)
class CalibrationCheck:
    """One named ordering the simulator must preserve."""

    name: str
    claim: str
    passed: bool
    detail: str


def _oracle_pick(device_name, network_name, observation=None,
                 accuracy_target=None, streaming=False):
    env = EdgeCloudEnvironment(build_device(device_name), scenario="S1",
                               seed=0)
    use_case = use_case_for(build_network(network_name),
                            streaming=streaming,
                            accuracy_target=accuracy_target)
    observation = observation or Observation()
    target, nominal = OptOracle().evaluate(env, use_case, observation)
    return target, nominal


def run_calibration_checks():
    """Evaluate every Section-III ordering; returns checks + a table."""
    checks: List[CalibrationCheck] = []

    def check(name, claim, condition, detail):
        checks.append(CalibrationCheck(name, claim, bool(condition),
                                       detail))

    # Fig. 2 family -----------------------------------------------------
    target, _ = _oracle_pick("mi8pro", "mobilenet_v3")
    check("fig2_light_high_end", "light NN on high-end phone stays local",
          target.location.value == "local", target.key)

    target, _ = _oracle_pick("mi8pro", "mobilebert")
    check("fig2_heavy_cloud", "heavy NN prefers the cloud",
          target.location.value == "cloud", target.key)

    target, _ = _oracle_pick("moto_x_force", "inception_v1")
    check("fig2_mid_end_scale_out",
          "mid-end phone scales out even for light NNs",
          target.location.value != "local", target.key)

    # Fig. 3 ------------------------------------------------------------
    device = build_device("mi8pro")
    network = build_network("mobilenet_v3")
    from repro.models.layers import LayerType
    from repro.models.quantization import Precision

    fc_layers = [l for l in network.layers if l.kind is LayerType.FC]
    cpu_fc = device.soc.cpu.layers_latency_ms(fc_layers, Precision.FP32)
    gpu_fc = device.soc.processor("gpu").layers_latency_ms(
        fc_layers, Precision.FP32
    )
    check("fig3_fc_on_coprocessor", "FC layers slower on the GPU",
          gpu_fc > 2.0 * cpu_fc, f"cpu {cpu_fc:.1f} ms vs gpu "
          f"{gpu_fc:.1f} ms")

    # Fig. 4 ------------------------------------------------------------
    target, _ = _oracle_pick("mi8pro", "inception_v1",
                             accuracy_target=50.0)
    check("fig4_inception_50", "Inception v1 @50% -> DSP INT8",
          target.key == "local/dsp/int8/vf0", target.key)
    target, _ = _oracle_pick("mi8pro", "mobilenet_v3",
                             accuracy_target=50.0)
    check("fig4_mobilenet_50", "MobileNet v3 @50% -> CPU INT8",
          target.key.startswith("local/cpu/int8"), target.key)
    target, _ = _oracle_pick("mi8pro", "mobilenet_v3",
                             accuracy_target=65.0)
    check("fig4_mobilenet_65", "MobileNet v3 @65% leaves INT8",
          "int8" not in target.key, target.key)

    # Fig. 5 ------------------------------------------------------------
    target, _ = _oracle_pick("mi8pro", "mobilenet_v3",
                             Observation(cpu_util=0.9, mem_util=0.1))
    check("fig5_cpu_corunner", "CPU co-runner moves MNv3 off the CPU",
          not target.key.startswith("local/cpu"), target.key)
    target, _ = _oracle_pick("mi8pro", "mobilenet_v3",
                             Observation(cpu_util=0.2, mem_util=0.95))
    check("fig5_mem_corunner",
          "memory co-runner moves MNv3 off the device",
          target.location.value != "local", target.key)

    # Fig. 6 ------------------------------------------------------------
    target, _ = _oracle_pick("mi8pro", "resnet_50")
    check("fig6_strong", "ResNet-50 at strong signal -> cloud",
          target.location.value == "cloud", target.key)
    target, _ = _oracle_pick("mi8pro", "resnet_50",
                             Observation(rssi_wlan_dbm=-86.0))
    check("fig6_weak_wifi",
          "weak Wi-Fi -> connected edge serves ResNet-50",
          target.location.value == "connected", target.key)
    target, _ = _oracle_pick(
        "mi8pro", "resnet_50",
        Observation(rssi_wlan_dbm=-86.0, rssi_p2p_dbm=-86.0),
    )
    check("fig6_both_weak", "both links weak -> back to the device",
          target.location.value == "local", target.key)

    # Action/state space sizes ------------------------------------------
    env = EdgeCloudEnvironment(build_device("mi8pro"), seed=0)
    check("space_66_actions", "Mi8Pro action space has 66 actions",
          len(env.targets()) == 66, str(len(env.targets())))
    from repro.core.state import table_i_state_space
    check("space_3072_states", "Table-I space has 3,072 states",
          table_i_state_space().size == 3072,
          str(table_i_state_space().size))

    table = format_table(
        ["check", "claim", "status", "detail"],
        [[c.name, c.claim, "PASS" if c.passed else "FAIL", c.detail]
         for c in checks],
        title="Calibration self-test (Section III orderings)",
    )
    return {"checks": checks, "table": table,
            "all_passed": all(c.passed for c in checks)}

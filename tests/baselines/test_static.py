"""Tests for the static baseline policies."""

import pytest

from repro.baselines.static import (
    CloudOffload,
    ConnectedEdgeOffload,
    EdgeBest,
    EdgeCpuFp32,
)
from repro.env.environment import EdgeCloudEnvironment
from repro.env.observation import Observation
from repro.env.qos import use_cases_for_zoo
from repro.env.target import Location
from repro.hardware.devices import PHONE_NAMES, build_device
from repro.models.quantization import Precision


def _scan_top_vf(environment, location):
    """The target scan the static baselines ran per call: every target
    of ``location``, the top V/F step kept per (role, precision)."""
    chosen = {}
    for target in environment.targets():
        if target.location is not location:
            continue
        slot = (target.role, target.precision)
        if slot not in chosen or target.vf_index > chosen[slot].vf_index:
            chosen[slot] = target
    return list(chosen.values())


def _scan_best_local(environment, use_case, observation):
    """Edge (Best) by scan: the first feasibility-first min-energy
    top-step local target under quiescent nominal estimates."""
    quiet = Observation(rssi_wlan_dbm=observation.rssi_wlan_dbm,
                        rssi_p2p_dbm=observation.rssi_p2p_dbm,
                        now_ms=observation.now_ms)
    results = [(target, environment.estimate(use_case.network, target,
                                             quiet))
               for target in _scan_top_vf(environment, Location.LOCAL)]
    results = [(target, result) for target, result in results
               if use_case.meets_accuracy(result.accuracy_pct)]
    feasible = [(target, result) for target, result in results
                if result.latency_ms <= use_case.qos_ms]
    pool = feasible or results
    best = pool[0]
    for candidate in pool[1:]:
        if candidate[1].energy_mj < best[1].energy_mj:
            best = candidate
    return best[0]


@pytest.mark.parametrize("device_name", (*PHONE_NAMES, "mi8pro_npu"))
def test_static_choices_match_the_scan(zoo, device_name):
    env = EdgeCloudEnvironment(build_device(device_name), scenario="S3",
                               seed=0)
    observation = env.observe()
    cpu_fp32 = [target for target in _scan_top_vf(env, Location.LOCAL)
                if target.role == "cpu"
                and target.precision is Precision.FP32]
    edge_cpu, edge_best = EdgeCpuFp32(), EdgeBest()
    for case in use_cases_for_zoo(zoo):
        assert edge_cpu.select(env, case, observation) is cpu_fp32[0]
        assert edge_best.select(env, case, observation) \
            == _scan_best_local(env, case, observation)


def test_cpu_target_follows_the_environment(mobilenet_case):
    """One EdgeCpuFp32 used on environments of different devices returns
    each environment's own target."""
    policy = EdgeCpuFp32()
    for device_name in ("mi8pro", "moto_x_force", "mi8pro"):
        env = EdgeCloudEnvironment(build_device(device_name), seed=0)
        target = policy.select(env, mobilenet_case, env.observe())
        assert target in env.action_space
        assert target.vf_index == env.device.soc.cpu.num_vf_steps - 1


class TestEdgeCpuFp32:
    def test_always_local_cpu_fp32_top_clock(self, env, mobilenet_case):
        policy = EdgeCpuFp32()
        obs = env.observe()
        target = policy.select(env, mobilenet_case, obs)
        assert target.location is Location.LOCAL
        assert target.role == "cpu"
        assert target.precision is Precision.FP32
        assert target.vf_index == env.device.soc.cpu.num_vf_steps - 1

    def test_execute_returns_result(self, env, mobilenet_case):
        result = EdgeCpuFp32().execute(env, mobilenet_case)
        assert result.target_key.startswith("local/cpu/fp32")


class TestEdgeBest:
    def test_stays_local(self, env, mobilenet_case, resnet_case,
                         bert_case):
        policy = EdgeBest()
        for case in (mobilenet_case, resnet_case, bert_case):
            target = policy.select(env, case, env.observe())
            assert target.location is Location.LOCAL

    def test_beats_cpu_baseline_energy(self, env, resnet_case):
        obs = env.observe()
        best = env.estimate(resnet_case.network,
                            EdgeBest().select(env, resnet_case, obs), obs)
        cpu = env.estimate(resnet_case.network,
                           EdgeCpuFp32().select(env, resnet_case, obs),
                           obs)
        assert best.energy_mj < cpu.energy_mj

    def test_choice_cached_per_use_case(self, env, mobilenet_case):
        policy = EdgeBest()
        obs = env.observe()
        first = policy.select(env, mobilenet_case, obs)
        second = policy.select(env, mobilenet_case, obs)
        assert first is second

    def test_static_choice_ignores_interference(self, mi8pro_device,
                                                mobilenet_case):
        """Fig. 5's criticism: Edge(Best) cannot react to co-runners."""
        from repro.env.environment import EdgeCloudEnvironment
        quiet_env = EdgeCloudEnvironment(mi8pro_device, scenario="S1",
                                         seed=0)
        policy = EdgeBest()
        quiet_target = policy.select(quiet_env, mobilenet_case,
                                     quiet_env.observe())
        busy_env = EdgeCloudEnvironment(mi8pro_device, scenario="S2",
                                        seed=0)
        busy_target = policy.select(busy_env, mobilenet_case,
                                    busy_env.observe())
        assert quiet_target.key == busy_target.key


class TestRemoteOffloads:
    def test_cloud_always_cloud(self, env, mobilenet_case, bert_case):
        policy = CloudOffload()
        for case in (mobilenet_case, bert_case):
            target = policy.select(env, case, env.observe())
            assert target.location is Location.CLOUD

    def test_connected_always_connected(self, env, mobilenet_case):
        target = ConnectedEdgeOffload().select(env, mobilenet_case,
                                               env.observe())
        assert target.location is Location.CONNECTED

    def test_cloud_picks_gpu_for_heavy(self, env, bert_case):
        target = CloudOffload().select(env, bert_case, env.observe())
        assert target.role == "gpu"

    def test_accuracy_target_respected(self, env, zoo):
        from repro.env.qos import use_case_for
        case = use_case_for(zoo["mobilenet_v3"], accuracy_target=65.0)
        target = ConnectedEdgeOffload().select(env, case, env.observe())
        # INT8 on the connected DSP fails the 65% target for MobileNet v3.
        assert target.precision is not Precision.INT8

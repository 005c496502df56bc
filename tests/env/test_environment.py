"""Tests for the EdgeCloudEnvironment."""

import gc
import weakref

import pytest

from repro.common import ConfigError
from repro.env.environment import EdgeCloudEnvironment
from repro.env.executor import partitioned_execution
from repro.env.target import ExecutionTarget, Location
from repro.hardware.devices import build_device
from repro.models.quantization import Precision


class TestConstruction:
    def test_defaults_attach_cloud_and_tablet(self, env):
        assert env.cloud is not None
        assert env.connected is not None

    def test_scenario_by_name(self, mi8pro_device):
        env = EdgeCloudEnvironment(mi8pro_device, scenario="S4")
        assert env.scenario.name == "S4"

    def test_cloud_can_be_removed(self, mi8pro_device):
        env = EdgeCloudEnvironment(mi8pro_device, cloud=False)
        assert env.cloud is None
        assert all(t.location is not Location.CLOUD
                   for t in env.targets())

    def test_removing_both_remotes_rejected(self, mi8pro_device):
        with pytest.raises(ConfigError):
            EdgeCloudEnvironment(mi8pro_device, cloud=False,
                                 connected=False)

    def test_dropped_environment_is_freed_without_the_collector(
            self, mi8pro_device, zoo):
        """No reference cycle: the cost engine does not keep its
        environment alive, warm caches included."""
        network = zoo["inception_v1"]
        env = EdgeCloudEnvironment(mi8pro_device, scenario="S2", seed=0)
        observation = env.observe()
        env.estimate_all(network, observation)
        for target in env.targets()[::7]:
            env.execute(network, target, observation)
        local, remote = _split_targets(env)
        env.execute_split(network, 10, local, remote, observation)
        env.execute_pipelined(network, [(10, local), (53, local)],
                              observation)
        ref = weakref.ref(env)
        gc.disable()
        try:
            del env
            assert ref() is None
        finally:
            gc.enable()


class TestObserve:
    def test_s1_observation_is_quiescent(self, env):
        obs = env.observe()
        assert obs.cpu_util == 0.0
        assert obs.mem_util == 0.0
        assert obs.rssi_wlan_dbm > -80.0

    def test_observation_carries_clock(self, env, zoo, mobilenet_case):
        env.execute(mobilenet_case.network, env.targets()[0])
        obs = env.observe()
        assert obs.now_ms > 0.0

    def test_reset_rewinds_clock(self, env, mobilenet_case):
        env.execute(mobilenet_case.network, env.targets()[0])
        env.reset()
        assert env.clock.now_ms == 0.0


class TestExecute:
    def test_execute_advances_clock(self, env, mobilenet_case):
        before = env.clock.now_ms
        result = env.execute(mobilenet_case.network, env.targets()[0])
        assert env.clock.now_ms >= before + result.latency_ms

    def test_estimate_is_deterministic_and_clockless(self, env,
                                                     mobilenet_case):
        obs = env.observe()
        target = env.targets()[0]
        before = env.clock.now_ms
        a = env.estimate(mobilenet_case.network, target, obs)
        b = env.estimate(mobilenet_case.network, target, obs)
        assert a.latency_ms == b.latency_ms
        assert env.clock.now_ms == before

    def test_execute_noisy_around_estimate(self, env, mobilenet_case):
        obs = env.observe()
        target = env.targets()[0]
        nominal = env.estimate(mobilenet_case.network, target, obs)
        measured = env.execute(mobilenet_case.network, target, obs)
        assert measured.latency_ms == pytest.approx(nominal.latency_ms,
                                                    rel=0.35)

    def test_cloud_execution(self, env, resnet_case):
        target = ExecutionTarget(Location.CLOUD, "gpu", Precision.FP32)
        result = env.execute(resnet_case.network, target)
        assert result.target_key == "cloud/gpu/fp32"
        assert "remote_ms" in result.detail

    def test_connected_execution(self, env, mobilenet_case):
        target = ExecutionTarget(Location.CONNECTED, "dsp", Precision.INT8)
        result = env.execute(mobilenet_case.network, target)
        assert result.target_key == "connected/dsp/int8"

    def test_missing_remote_rejected(self, mi8pro_device, mobilenet_case):
        env = EdgeCloudEnvironment(mi8pro_device, connected=False)
        target = ExecutionTarget(Location.CONNECTED, "dsp",
                                 Precision.INT8)
        with pytest.raises(ConfigError):
            env.execute(mobilenet_case.network, target)


class TestSeeding:
    def test_same_seed_same_trajectory(self, mi8pro_device,
                                       mobilenet_case):
        def run(seed):
            env = EdgeCloudEnvironment(build_device("mi8pro"),
                                       scenario="D3", seed=seed)
            target = env.targets()[0]
            return [env.execute(mobilenet_case.network, target).energy_mj
                    for _ in range(5)]

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestLayerGranularity:
    def test_execute_split(self, env, zoo):
        net = zoo["inception_v1"]
        local = ExecutionTarget(Location.LOCAL, "cpu", Precision.FP32,
                                env.device.soc.cpu.num_vf_steps - 1)
        remote = ExecutionTarget(Location.CLOUD, "gpu", Precision.FP32)
        result = env.execute_split(net, len(net.layers) // 2, local,
                                   remote)
        assert result.latency_ms > 0

    def test_execute_pipelined(self, env, zoo):
        net = zoo["mobilenet_v3"]
        cpu = ExecutionTarget(Location.LOCAL, "cpu", Precision.INT8,
                              env.device.soc.cpu.num_vf_steps - 1)
        result = env.execute_pipelined(net, [(len(net.layers), cpu)])
        assert result.target_key.startswith("mosaic[")


def _split_targets(env):
    """NeuroSurgeon's pair: the local CPU at FP32, top V/F, and the
    cloud GPU."""
    local = ExecutionTarget(Location.LOCAL, "cpu", Precision.FP32,
                            env.device.soc.cpu.num_vf_steps - 1)
    return local, ExecutionTarget(Location.CLOUD, "gpu", Precision.FP32)


class TestEndPointSplits:
    """A split at 0 or at the last layer is a whole-model run: it goes
    through ``execute`` (``estimate`` when deterministic), so a whole
    offload under a co-runner pays the same radio slowdown as any other."""

    @staticmethod
    def _assert_split_is_whole_run(zoo, at_end, scenario):
        """``execute_split`` and ``execute`` on identically seeded
        environments: every result field, the clock and the RNG."""
        network = zoo["inception_v1"]
        point = len(network.layers) if at_end else 0
        split_env, whole_env = (
            EdgeCloudEnvironment(build_device("mi8pro"), scenario=scenario,
                                 seed=7)
            for _ in range(2))
        local, remote = _split_targets(split_env)
        whole_target = local if at_end else remote
        for _ in range(3):
            split = split_env.execute_split(network, point, local, remote)
            whole = whole_env.execute(network, whole_target)
            assert split == whole
        assert split.target_key == whole_target.key
        assert split_env.clock.now_ms == whole_env.clock.now_ms
        assert split_env.rng.bit_generator.state \
            == whole_env.rng.bit_generator.state

    def test_split_at_end_equals_local(self, zoo):
        for scenario in ("S1", "S2", "D2"):
            self._assert_split_is_whole_run(zoo, True, scenario)

    def test_split_at_zero_equals_remote(self, zoo):
        for scenario in ("S1", "S4", "D3"):
            self._assert_split_is_whole_run(zoo, False, scenario)

    def test_split_at_zero_matches_remote_under_load(self, zoo):
        """Regression: the degenerate split@0 must pay the co-runner's
        radio slowdown like the identical whole-model offload."""
        for scenario in ("S2", "S3", "D2"):
            self._assert_split_is_whole_run(zoo, False, scenario)

    @pytest.mark.parametrize("at_end", [False, True])
    def test_deterministic_matches_estimate(self, zoo, at_end):
        network = zoo["inception_v1"]
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S2",
                                   seed=7)
        local, remote = _split_targets(env)
        observation = env.observe()
        state = env.rng.bit_generator.state
        split = env.execute_split(
            network, len(network.layers) if at_end else 0, local, remote,
            observation, deterministic=True)
        assert split == env.estimate(network, local if at_end else remote,
                                     observation)
        assert env.clock.now_ms == 0.0
        assert env.rng.bit_generator.state == state

    @pytest.mark.parametrize("at_end", [False, True])
    def test_partitioned_execution_rejects_end_points(self, env, zoo,
                                                      at_end):
        network = zoo["inception_v1"]
        local, remote = _split_targets(env)
        observation = env.observe()
        with pytest.raises(ConfigError):
            partitioned_execution(
                env.device, env.cloud, network,
                len(network.layers) if at_end else 0, local, remote,
                env.wifi, observation.rssi_wlan_dbm,
                observation, env.interference,
                env.accuracy, env.cost_engine.layer_terms,
            )

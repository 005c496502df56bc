"""Tests for the Opt oracle."""

from repro.baselines.oracle import OptOracle
from repro.baselines.static import EdgeBest, EdgeCpuFp32
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.hardware.devices import build_device


class TestOracleOptimality:
    def test_oracle_never_worse_than_any_feasible_target(
            self, env, mobilenet_case):
        oracle = OptOracle()
        obs = env.observe()
        target, nominal = oracle.evaluate(env, mobilenet_case, obs)
        assert nominal.latency_ms <= mobilenet_case.qos_ms
        for other in env.targets():
            other_nominal = env.estimate(mobilenet_case.network, other,
                                         obs)
            if other_nominal.latency_ms <= mobilenet_case.qos_ms:
                assert nominal.energy_mj <= other_nominal.energy_mj + 1e-9

    def test_oracle_beats_static_baselines(self, env, resnet_case):
        oracle = OptOracle()
        obs = env.observe()
        _, nominal = oracle.evaluate(env, resnet_case, obs)
        for baseline in (EdgeCpuFp32(), EdgeBest()):
            other = env.estimate(
                resnet_case.network,
                baseline.select(env, resnet_case, obs), obs,
            )
            assert nominal.energy_mj <= other.energy_mj + 1e-9

    def test_respects_accuracy_target(self, env, zoo):
        case = use_case_for(zoo["mobilenet_v3"], accuracy_target=65.0)
        oracle = OptOracle()
        target = oracle.select(env, case, env.observe())
        assert env.accuracy.lookup("mobilenet_v3",
                                   target.precision) >= 65.0

    def test_falls_back_when_nothing_meets_qos(self, zoo):
        """Fig. 9: even Opt violates QoS sometimes (weak Wi-Fi + heavy
        network) — it then minimizes energy among accuracy-OK targets."""
        env = EdgeCloudEnvironment(build_device("moto_x_force"),
                                   scenario="S4", seed=0)
        case = use_case_for(zoo["inception_v3"])
        oracle = OptOracle()
        obs = env.observe()
        target, nominal = oracle.evaluate(env, case, obs)
        assert nominal.latency_ms > case.qos_ms  # genuinely infeasible
        for other in env.targets():
            other_nominal = env.estimate(case.network, other, obs)
            assert nominal.energy_mj <= other_nominal.energy_mj + 1e-9


class TestOracleCache:
    def test_cache_hit_by_state_key(self, env, mobilenet_case):
        oracle = OptOracle()
        obs = env.observe()
        first = oracle.select(env, mobilenet_case, obs, state_key=42)
        second = oracle.select(env, mobilenet_case, obs, state_key=42)
        assert first is second

    def test_no_state_key_no_cache(self, env, mobilenet_case):
        oracle = OptOracle()
        obs = env.observe()
        oracle.select(env, mobilenet_case, obs)
        assert not oracle._cache

"""Edge-case behaviour of the engine that the main tests don't touch."""

from repro.core.engine import AutoScale
from repro.core.qlearning import QLearningConfig
from repro.env.environment import EdgeCloudEnvironment
from repro.env.executor import NoiseConfig
from repro.env.qos import use_case_for
from repro.hardware.devices import build_device
from repro.wireless.profiles import default_lte


class TestUntrainedEngine:
    def test_frozen_prediction_before_any_training(self, env, zoo):
        """A brand-new frozen engine must still produce a valid target
        (global argmax over the random init)."""
        engine = AutoScale(env, seed=0)
        engine.freeze()
        target = engine.predict(zoo["mobilenet_v3"], env.observe())
        assert target in engine.action_space

    def test_zero_epsilon_never_explores(self, env, mobilenet_case):
        engine = AutoScale(env, seed=0,
                           config=QLearningConfig(epsilon=0.0))
        steps = engine.run(mobilenet_case, 50)
        assert not any(step.explored for step in steps)

    def test_full_epsilon_always_explores(self, env, mobilenet_case):
        engine = AutoScale(env, seed=0,
                           config=QLearningConfig(epsilon=1.0))
        steps = engine.run(mobilenet_case, 30)
        assert all(step.explored for step in steps)


class TestCustomEnvironments:
    def test_zero_noise_makes_execute_deterministic(self, zoo,
                                                    mobilenet_case):
        env = EdgeCloudEnvironment(
            build_device("mi8pro"), scenario="S1",
            noise=NoiseConfig(latency_sigma=0.0, power_sigma=0.0,
                              server_sigma=0.0, network_sigma=0.0),
            seed=0,
        )
        target = env.targets()[0]
        obs = env.observe()
        first = env.execute(mobilenet_case.network, target, obs)
        second = env.execute(mobilenet_case.network, target, obs)
        assert first.latency_ms == second.latency_ms
        assert first.energy_mj == second.energy_mj
        # And the nominal estimate coincides exactly.
        nominal = env.estimate(mobilenet_case.network, target, obs)
        assert nominal.latency_ms == first.latency_ms

    def test_engine_learns_over_lte(self, zoo):
        """Swapping the WLAN for LTE changes the learned policy: the
        tail-heavy radio keeps ResNet-50 off the cloud."""
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   wifi=default_lte(), seed=3)
        engine = AutoScale(env, seed=3)
        case = use_case_for(zoo["resnet_50"])
        engine.run(case, 130)
        engine.freeze()
        target = engine.predict(case.network, env.observe())
        assert target.location.value != "cloud"

    def test_engine_without_connected_device(self, zoo):
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   connected=False, seed=3)
        engine = AutoScale(env, seed=3)
        assert len(engine.action_space) == 63  # 66 minus 3 connected
        case = use_case_for(zoo["mobilebert"])
        engine.run(case, 100)
        engine.freeze()
        assert engine.predict(case.network,
                              env.observe()).location.value == "cloud"

    def test_engine_on_npu_device(self, zoo):
        env = EdgeCloudEnvironment(build_device("mi8pro_npu"),
                                   scenario="S1", seed=3)
        engine = AutoScale(env, seed=3)
        case = use_case_for(zoo["inception_v1"])
        engine.run(case, 130)
        engine.freeze()
        target = engine.predict(case.network, env.observe())
        assert target.role == "npu"


class TestHistoryBookkeeping:
    def test_history_grows_monotonically(self, env, mobilenet_case):
        engine = AutoScale(env, seed=1)
        engine.run(mobilenet_case, 10)
        engine.freeze()
        engine.step(mobilenet_case)
        assert len(engine.history) == 11
        assert len(engine.rewards()) == 11

    def test_unfreeze_resumes_learning(self, env, mobilenet_case):
        engine = AutoScale(env, seed=1)
        engine.run(mobilenet_case, 5)
        engine.freeze()
        engine.step(mobilenet_case)
        engine.unfreeze()
        before = engine.qtable.update_count
        engine.step(mobilenet_case)
        assert engine.qtable.update_count == before + 1

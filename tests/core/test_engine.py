"""Tests for the AutoScale engine (Fig. 8 / Algorithm 1)."""

import numpy as np
import pytest

from repro.common import ConfigError, make_rng
from repro.core.alternatives import LinearQFunction, SarsaTable
from repro.core.engine import AutoScale
from repro.core.qlearning import QTable
from repro.core.state import table_i_state_space
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.env.scenarios import build_scenario
from repro.hardware.devices import build_device
from repro.sim.events import EventKind


@pytest.fixture()
def engine(env):
    return AutoScale(env, seed=11)


class TestSetup:
    def test_default_spaces(self, engine):
        assert engine.state_space.size == 3072
        assert len(engine.action_space) == 66
        assert engine.qtable.num_states == 3072
        assert engine.qtable.num_actions == 66

    def test_training_by_default(self, engine):
        assert engine.training

    def test_default_table_is_drawn_from_the_engine_rng(self, env):
        engine = AutoScale(env, seed=11)
        rng = make_rng(11)
        expected = QTable(3072, 66, seed=rng)
        np.testing.assert_array_equal(engine.qtable.values, expected.values)
        assert engine.rng.bit_generator.state == rng.bit_generator.state

    def test_passed_learner_draws_nothing_from_the_engine_rng(self, env):
        table = SarsaTable(3072, 66, seed=5)
        engine = AutoScale(env, seed=11, qtable=table)
        assert engine.qtable is table
        assert engine.rng.bit_generator.state \
            == make_rng(11).bit_generator.state


class TestPassedLearner:
    """A learner passed as ``qtable`` runs in the engine's own cycle."""

    def test_sarsa_update_lags_one_cycle(self, env, mobilenet_case):
        engine = AutoScale(env, seed=3, qtable=SarsaTable(3072, 66, seed=3))
        first, _ = engine.run(mobilenet_case, 2)
        assert first.q_delta == 0.0
        assert engine.qtable.update_count == 1
        assert engine.qtable.visits[first.state, first.action] == 1

    def test_approximator_trains_and_predicts(self, env, mobilenet_case):
        learner = LinearQFunction(table_i_state_space(), 66, seed=3)
        engine = AutoScale(env, seed=3, qtable=learner)
        steps = engine.run(mobilenet_case, 30)
        assert learner.update_count == 30
        state = steps[-1].state
        engine.freeze()
        action, explored = engine.select_action(state)
        assert not explored
        assert learner.visits[state, action] > 0
        assert engine.memory_footprint_bytes() == learner.memory_bytes


class TestStep:
    def test_step_records_everything(self, engine, mobilenet_case):
        step = engine.step(mobilenet_case)
        assert 0 <= step.state < 3072
        assert 0 <= step.action < 66
        assert step.target_key == \
            engine.action_space.target(step.action).key
        assert step.result.latency_ms > 0
        assert engine.history[-1] is step

    def test_step_updates_qtable(self, engine, mobilenet_case):
        before = engine.qtable.update_count
        engine.step(mobilenet_case)
        assert engine.qtable.update_count == before + 1

    def test_frozen_step_does_not_update(self, engine, mobilenet_case):
        engine.run(mobilenet_case, 5)
        engine.freeze()
        before = engine.qtable.update_count
        engine.step(mobilenet_case)
        assert engine.qtable.update_count == before

    def test_run_length(self, engine, mobilenet_case):
        steps = engine.run(mobilenet_case, 7)
        assert len(steps) == 7
        with pytest.raises(ConfigError):
            engine.run(mobilenet_case, 0)

    def test_overhead_recorded(self, engine, mobilenet_case):
        engine.run(mobilenet_case, 5)
        assert engine.overhead.mean_select_us() > 0
        assert engine.overhead.mean_update_us() > 0
        assert engine.overhead.mean_train_us() == pytest.approx(
            engine.overhead.mean_select_us()
            + engine.overhead.mean_update_us()
        )


class TestLearning:
    def test_learns_good_target_for_light_network(self, zoo):
        """After training, MobileNet v3 should stay on-device — the
        Fig. 13 story for high-end phones and light networks."""
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=7)
        engine = AutoScale(env, seed=7)
        case = use_case_for(zoo["mobilenet_v3"])
        engine.run(case, 100)
        engine.freeze()
        target = engine.predict(case.network, env.observe())
        assert target.location.value == "local"

    def test_learns_cloud_for_heavy_network(self, zoo):
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=7)
        engine = AutoScale(env, seed=7)
        case = use_case_for(zoo["mobilebert"])
        engine.run(case, 100)
        engine.freeze()
        target = engine.predict(case.network, env.observe())
        assert target.location.value == "cloud"

    def test_trained_choice_beats_baseline_energy(self, zoo):
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=3)
        engine = AutoScale(env, seed=3)
        case = use_case_for(zoo["resnet_50"])
        engine.run(case, 100)
        engine.freeze()
        obs = env.observe()
        chosen = env.estimate(case.network, engine.predict(case.network,
                                                           obs), obs)
        from repro.env.target import ExecutionTarget, Location
        from repro.models.quantization import Precision
        cpu = ExecutionTarget(Location.LOCAL, "cpu", Precision.FP32,
                              env.device.soc.cpu.num_vf_steps - 1)
        baseline = env.estimate(case.network, cpu, obs)
        assert chosen.energy_mj < 0.25 * baseline.energy_mj

    def test_convergence_criteria(self, zoo):
        """Fig. 14 measures *reward* convergence (paper: ~40-50 runs);
        the engine's internal detector additionally waits for the policy
        to settle on an action, which lands after the optimistic-init
        sweep of the ~66-action space (~75-100 runs)."""
        from repro.core.convergence import episodes_to_converge

        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=1)
        engine = AutoScale(env, seed=1)
        steps = engine.run(use_case_for(zoo["mobilenet_v3"]), 130)
        assert engine.converged
        assert engine.convergence.converged_at <= 115
        rewards = [s.reward for s in steps if not s.explored]
        assert episodes_to_converge(rewards) <= 70

    def test_exploration_happens(self, engine, mobilenet_case):
        steps = engine.run(mobilenet_case, 100)
        explored = sum(1 for s in steps if s.explored)
        assert 2 <= explored <= 25  # epsilon = 0.1

    def test_frozen_never_explores(self, engine, mobilenet_case):
        engine.run(mobilenet_case, 10)
        engine.freeze()
        steps = [engine.step(mobilenet_case) for _ in range(30)]
        assert not any(s.explored for s in steps)

    def test_memory_footprint(self, engine):
        # 3072 x 66 float32.
        assert engine.memory_footprint_bytes() == 3072 * 66 * 4

    def test_rewards_trace(self, engine, mobilenet_case):
        engine.run(mobilenet_case, 5)
        assert len(engine.rewards()) == 5


def _counting(engine):
    """Count the environment's observes and the engine's encodes."""
    counts = {"observes": 0, "encodes": 0}
    observe = engine.environment.observe
    encode = engine.observe_state

    def counted_observe():
        counts["observes"] += 1
        return observe()

    def counted_encode(network, observation):
        counts["encodes"] += 1
        return encode(network, observation)

    engine.environment.observe = counted_observe
    engine.observe_state = counted_encode
    return counts


class TestObservationCarry:
    """Algorithm 1's s <- s': under a static scenario the engine observes
    once and encodes once per network for as long as that scenario
    object stays installed, whichever entry point drives it."""

    def test_static_steps_and_run_observe_once(self, engine, zoo):
        light = use_case_for(zoo["mobilenet_v3"])
        heavy = use_case_for(zoo["resnet_50"])
        counts = _counting(engine)
        for _ in range(6):
            engine.step(light)
        engine.run(heavy, 6)
        engine.run(light, 6)
        assert counts == {"observes": 1, "encodes": 2}

    def test_dynamic_step_observes_twice(self, mobilenet_case):
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="D2",
                                   seed=1234)
        engine = AutoScale(env, seed=11)
        counts = _counting(engine)
        for _ in range(5):
            engine.step(mobilenet_case)
        assert counts["observes"] == 10
        assert counts["encodes"] == 10

    def test_scenario_swap_during_execute_forces_a_fresh_observe(
            self, engine, mobilenet_case):
        env = engine.environment
        carried = engine.observe()

        def swap(event):
            env.scenario = build_scenario("S1")

        env.kernel.schedule(env.clock.now_ms + 1.0, EventKind.TIMER,
                            payload="swap", callback=swap)
        counts = _counting(engine)
        # Starts on the carried sample; the swap fires inside execute,
        # so the successor is observed afresh under the new object...
        engine.step(mobilenet_case)
        assert counts["observes"] == 1
        assert not engine.carries(carried)
        # ...and carried from then on.
        engine.step(mobilenet_case)
        assert counts["observes"] == 1

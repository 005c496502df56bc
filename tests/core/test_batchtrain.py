"""Bit-parity tests: ``AutoScale.run`` vs a per-step ``step`` loop.

``run`` loops over the same Algorithm-1 cycle ``step`` runs, reusing
the observation across iterations while the scenario is static.  Every
observable of a protocol (Q-table bytes, visit counts, update counts,
convergence episode, step records including ``detail``, virtual-clock
position, and both RNG streams) must be bit-identical to an explicit
per-step ``engine.step`` loop under the same seed: training, frozen,
under an active fault plan, and across kernel events that swap the
scenario or the fault plan mid-episode.  Because both share one body,
``run`` is also pinned against the parent's independent loop by the
``training_campaign`` fixture in ``tests/sim``.
``EdgeCloudEnvironment.execute`` (cached nominals) is held to the same
contract against the test-side layer-walk reference executors
(``tests/env/layer_walk.py``).
"""

import dataclasses

import numpy as np
import pytest

from repro.common import ConfigError
from repro.core.engine import AutoScale
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.env.target import Location
from repro.evalharness.runner import (
    RunConfig,
    loo_train_and_evaluate,
    train_autoscale,
)
from repro.faults.plan import FaultPlan
from repro.hardware.devices import build_device
from repro.interference.corunner import CoRunnerLoad
from repro.models.zoo import build_network
from repro.sim.events import EventKind
from tests.env.layer_walk import local_execution, remote_execution

TRAIN_NETWORKS = ("mobilenet_v3", "resnet_50")
TRAIN_RUNS = 80
ADAPT_RUNS = 40


def _build(scenario, seed=0):
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario=scenario,
                               seed=seed)
    return env, AutoScale(env, seed=seed)


def _run_protocol(scenario, per_step):
    """train_autoscale + adapt_engine shaped protocol, one path."""
    env, engine = _build(scenario)
    for name in TRAIN_NETWORKS:
        use_case = use_case_for(build_network(name))
        if per_step:
            for _ in range(TRAIN_RUNS):
                engine.step(use_case)
        else:
            engine.run(use_case, TRAIN_RUNS)
    use_case = use_case_for(build_network(TRAIN_NETWORKS[0]))
    engine.unfreeze()
    engine.convergence.reset()
    if per_step:
        for _ in range(ADAPT_RUNS):
            engine.step(use_case)
            if engine.converged:
                break
    else:
        engine.run(use_case, ADAPT_RUNS, stop_on_convergence=True)
    return env, engine, engine.convergence.converged_at


def _assert_same_training(env_s, eng_s, env_f, eng_f):
    assert eng_s.qtable.values.tobytes() == eng_f.qtable.values.tobytes()
    assert np.array_equal(eng_s.qtable.visits, eng_f.qtable.visits)
    assert eng_s.qtable.update_count == eng_f.qtable.update_count
    assert env_s.clock.now_ms == env_f.clock.now_ms
    assert len(eng_s.history) == len(eng_f.history)
    for scalar, fast in zip(eng_s.history, eng_f.history):
        assert scalar.state == fast.state
        assert scalar.action == fast.action
        assert scalar.target_key == fast.target_key
        assert scalar.reward == fast.reward
        assert scalar.explored == fast.explored
        assert scalar.q_delta == fast.q_delta
        assert scalar.result.latency_ms == fast.result.latency_ms
        assert scalar.result.energy_mj == fast.result.energy_mj
        assert scalar.result.estimated_energy_mj \
            == fast.result.estimated_energy_mj
        assert scalar.result.accuracy_pct == fast.result.accuracy_pct
        assert scalar.result.detail == fast.result.detail
    assert env_s.rng.bit_generator.state == env_f.rng.bit_generator.state
    assert eng_s.rng.bit_generator.state == eng_f.rng.bit_generator.state


def _assert_protocol_parity(scenario):
    env_s, eng_s, conv_s = _run_protocol(scenario, per_step=True)
    env_f, eng_f, conv_f = _run_protocol(scenario, per_step=False)
    assert conv_s == conv_f
    _assert_same_training(env_s, eng_s, env_f, eng_f)


def _layer_walk(env, network, target, observation, rng):
    """The reference executors, fed exactly what ``execute`` sees."""
    load = CoRunnerLoad(cpu_util=observation.cpu_util,
                        mem_util=observation.mem_util)
    if target.location is Location.LOCAL:
        return local_execution(env.device, network, target, load,
                               env.interference, env.accuracy, rng=rng,
                               noise=env.noise)
    remote, link = env._remote_setup(target)
    rssi_dbm = (observation.rssi_wlan_dbm
                if target.location is Location.CLOUD
                else observation.rssi_p2p_dbm)
    return remote_execution(env.device, remote, network, target, link,
                            rssi_dbm, env.accuracy, rng=rng,
                            noise=env.noise, load=load,
                            interference=env.interference)


class TestExecuteBatchParity:
    def test_results_clock_and_rng_match_scalar(self):
        """``execute``/``estimate`` vs the layer-walk reference on one
        chunk mixing local and remote targets."""
        network = build_network("inception_v1")
        env_s = EdgeCloudEnvironment(build_device("mi8pro"),
                                     scenario="S2", seed=3)
        env_c = EdgeCloudEnvironment(build_device("mi8pro"),
                                     scenario="S2", seed=3)
        targets = env_s.targets()
        chunk = [targets[i % len(targets)] for i in range(20)]
        observations = [env_s.observe() for _ in chunk]
        observations_c = [env_c.observe() for _ in chunk]
        for target, observation, observation_c in zip(
                chunk, observations, observations_c):
            reference = _layer_walk(env_s, network, target, observation,
                                    env_s.rng)
            env_s.advance_clock(reference.latency_ms + env_s.think_time_ms)
            executed = env_c.execute(network, target, observation_c)
            assert executed == reference
            assert env_c.estimate(network, target, observation_c) \
                == _layer_walk(env_s, network, target, observation, None)
        assert env_s.clock.now_ms == env_c.clock.now_ms
        assert env_s.rng.bit_generator.state \
            == env_c.rng.bit_generator.state


class TestBatchTrainerParity:
    @pytest.mark.parametrize("scenario", ["S1", "S4", "D3"])
    def test_full_protocol_contracts_on(self, scenario):
        # Under pytest, contracts are on: QTable.update validates the
        # reward and the updated Q-value.
        _assert_protocol_parity(scenario)

    @pytest.mark.parametrize("scenario", ["S1", "D3"])
    def test_full_protocol_contracts_off(self, scenario, monkeypatch):
        # REPRO_CONTRACTS=0, the production configuration: the same
        # arithmetic without the checks.
        monkeypatch.setenv("REPRO_CONTRACTS", "0")
        _assert_protocol_parity(scenario)

    def test_run_validates_budget(self):
        _, engine = _build("S1")
        with pytest.raises(ConfigError):
            engine.run(use_case_for(build_network("mobilenet_v3")), 0)

    @staticmethod
    def _run_vs_step(make_env, freeze, runs):
        """``run(runs)`` and ``runs`` ``step`` calls on twin engines."""
        outcome = []
        for per_step in (True, False):
            env = make_env()
            engine = AutoScale(env, seed=0)
            use_case = use_case_for(build_network("mobilenet_v3"))
            engine.run(use_case, 60)
            if freeze:
                engine.freeze()
            if per_step:
                for _ in range(runs):
                    engine.step(use_case)
            else:
                engine.run(use_case, runs)
            outcome += [env, engine]
        return outcome

    def test_active_faults_run_matches_step(self):
        env_s, eng_s, env_f, eng_f = self._run_vs_step(
            lambda: EdgeCloudEnvironment(
                build_device("mi8pro"), scenario="S1", seed=0,
                faults=FaultPlan(abort_prob=0.2, straggler_prob=0.2),
            ), freeze=False, runs=60)
        assert any(step.result.failed for step in eng_f.history)
        _assert_same_training(env_s, eng_s, env_f, eng_f)

    @pytest.mark.parametrize("scenario", ["S1", "D3"])
    def test_frozen_engine_run_matches_step(self, scenario):
        env_s, eng_s, env_f, eng_f = self._run_vs_step(
            lambda: EdgeCloudEnvironment(build_device("mi8pro"),
                                         scenario=scenario, seed=0),
            freeze=True, runs=30)
        assert eng_f.qtable.update_count == 60
        _assert_same_training(env_s, eng_s, env_f, eng_f)


#: Virtual time at which the TIMER below swaps the scenario: a few dozen
#: steps into the first training episode.
SWAP_AT_MS = 10_000.0


class TestKernelEventsDuringTraining:
    """Kernel events fire inside training exactly where ``step`` fires
    them, with contracts off (the production configuration)."""

    @staticmethod
    def _timer_protocol(swap_to, per_step):
        env, engine = _build("S1")
        use_cases = [use_case_for(build_network(name))
                     for name in TRAIN_NETWORKS]
        fired_at_step = []

        def swap(event):
            fired_at_step.append(engine.total_steps)
            if swap_to == "faults":
                env.faults = FaultPlan(abort_prob=1.0)
            else:
                env.scenario = swap_to

        # train_autoscale rewinds the clock (dropping pending events) at
        # each scenario; re-arm the TIMER after every rewind.
        rewind = env.kernel.rewind

        def rewind_and_rearm():
            rewind()
            env.kernel.schedule(SWAP_AT_MS, EventKind.TIMER,
                                payload="swap", callback=swap)

        env.kernel.rewind = rewind_and_rearm
        if per_step:
            env.scenario = "S1"
            env.rewind_clock()
            for use_case in use_cases:
                for _ in range(TRAIN_RUNS):
                    engine.step(use_case)
        else:
            train_autoscale(engine, use_cases, ("S1",), TRAIN_RUNS)
        return env, engine, fired_at_step

    @pytest.mark.parametrize("swap_to", ["S4", "D3"])
    def test_scenario_swap_timer_matches_per_step_loop(self, swap_to,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "0")
        env_s, eng_s, fired_s = self._timer_protocol(swap_to, True)
        env_f, eng_f, fired_f = self._timer_protocol(swap_to, False)
        assert fired_s and fired_s == fired_f
        assert env_f.scenario.name == swap_to
        _assert_same_training(env_s, eng_s, env_f, eng_f)

    def test_fault_plan_attached_mid_episode(self, monkeypatch):
        """Failed attempts that start mid-episode are scored by
        ``compute_reward``'s failure branch, as ``step`` scores them."""
        monkeypatch.setenv("REPRO_CONTRACTS", "0")
        env_s, eng_s, fired_s = self._timer_protocol("faults", True)
        env_f, eng_f, fired_f = self._timer_protocol("faults", False)
        assert fired_s and fired_s == fired_f
        # A failure must land inside the first ``run`` episode, where
        # the observation carries across iterations.
        assert any(step.result.failed
                   for step in list(eng_f.history)[:TRAIN_RUNS])
        _assert_same_training(env_s, eng_s, env_f, eng_f)


class TestNetworkRedefinition:
    def test_invalidated_caches_match_fresh_environment(self):
        """Every network-name-keyed cache (exact nominals, layer terms,
        finishers) is dropped by ``invalidate(network_tables=True)``."""
        original = build_network("mobilenet_v3")
        redefined = dataclasses.replace(build_network("resnet_50"),
                                        name=original.name)
        stale_env, stale_engine = _build("S1")
        stale_engine.run(use_case_for(original), 40)
        stale_env.cost_engine.invalidate(network_tables=True)
        stale_env.reset(seed=1)
        fresh_env = EdgeCloudEnvironment(build_device("mi8pro"),
                                         scenario="S1", seed=1)
        outcomes = []
        for env in (stale_env, fresh_env):
            engine = AutoScale(env, seed=1)
            engine.run(use_case_for(redefined), 40)
            observation = env.observe()
            outcomes.append((
                engine.qtable.values.tobytes(),
                [step.result for step in engine.history],
                [env.execute(redefined, target, observation)
                 for target in env.targets()],
                [env.estimate(redefined, target, observation)
                 for target in env.targets()],
                env.clock.now_ms,
                env.rng.bit_generator.state,
            ))
        assert outcomes[0] == outcomes[1]


class TestLooEnvironmentReuse:
    def test_reused_environment_matches_fresh(self):
        """Fold-level reuse: a reset + warm value-keyed caches must
        reproduce the cold-environment fold bit-for-bit."""
        use_cases = [use_case_for(build_network(name))
                     for name in ("mobilenet_v3", "inception_v1",
                                  "resnet_50")]
        config = RunConfig(train_runs=20, adapt_runs=30, eval_runs=6)
        shared_env = EdgeCloudEnvironment(build_device("mi8pro"),
                                          scenario="S1", seed=0)
        for test_case in use_cases[:2]:
            fresh_env = EdgeCloudEnvironment(build_device("mi8pro"),
                                             scenario="S1", seed=0)
            _, fresh = loo_train_and_evaluate(
                fresh_env, use_cases, test_case,
                scenarios=("S1",), config=config, seed=0,
            )
            _, reused = loo_train_and_evaluate(
                shared_env, use_cases, test_case,
                scenarios=("S1",), config=config, seed=0,
            )
            for scenario_name, fresh_stats in fresh.items():
                reused_stats = reused[scenario_name]
                assert fresh_stats.energies_mj == reused_stats.energies_mj
                assert fresh_stats.latencies_ms \
                    == reused_stats.latencies_ms
                assert fresh_stats.decisions == reused_stats.decisions
                assert fresh_stats.oracle_matches \
                    == reused_stats.oracle_matches

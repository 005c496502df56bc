"""Tests for the training/evaluation protocol runner."""

import pytest

from repro.baselines.oracle import OptOracle
from repro.baselines.static import EdgeCpuFp32
from repro.common import ConfigError
from repro.core.engine import AutoScale
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.evalharness.metrics import EpisodeStats, decision_match
from repro.evalharness.runner import (
    RunConfig,
    adapt_engine,
    evaluate_autoscale,
    evaluate_scheduler,
    loo_train_and_evaluate,
    train_autoscale,
)
from repro.hardware.devices import build_device


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.train_runs >= 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(train_runs=0)


class TestTrainAutoscale:
    def test_trains_across_scenarios(self, zoo):
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=0)
        engine = AutoScale(env, seed=0)
        cases = [use_case_for(zoo["mobilenet_v3"])]
        train_autoscale(engine, cases, scenarios=("S1", "S2"),
                        runs_per_case=5)
        assert len(engine.history) == 10
        assert env.scenario.name == "S2"


class TestAdaptAndEvaluate:
    def test_adapt_stops_on_convergence(self, zoo):
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=0)
        engine = AutoScale(env, seed=0)
        case = use_case_for(zoo["mobilenet_v3"])
        converged_at = adapt_engine(engine, case, max_runs=150)
        assert converged_at is not None
        assert len(engine.history) <= 150

    def test_evaluate_is_frozen_and_scored(self, zoo):
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=0)
        engine = AutoScale(env, seed=0)
        case = use_case_for(zoo["mobilenet_v3"])
        adapt_engine(engine, case, max_runs=100)
        stats = evaluate_autoscale(engine, case, eval_runs=10,
                                   oracle=OptOracle())
        assert stats.num_inferences == 10
        assert 0.0 <= stats.prediction_accuracy_pct <= 100.0
        # After evaluation the engine is back in training mode.
        assert engine.training

    @pytest.mark.parametrize("with_oracle", (False, True))
    def test_evaluation_run_selects_once(self, zoo, with_oracle):
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S2",
                                   seed=0)
        engine = AutoScale(env, seed=0)
        case = use_case_for(zoo["mobilenet_v3"])
        adapt_engine(engine, case, max_runs=60)
        before = engine.overhead.select_us.count
        evaluate_autoscale(engine, case, eval_runs=1,
                           oracle=OptOracle() if with_oracle else None)
        assert engine.overhead.select_us.count == before + 1

    def test_evaluation_matches_predict_then_step(self, zoo):
        """Executing the one selection equals the former predict-then-
        ``step`` loop (which selected twice): same steps, same scores,
        same RNG streams."""
        case = use_case_for(zoo["inception_v1"])

        def trained():
            env = EdgeCloudEnvironment(build_device("mi8pro"),
                                       scenario="D2", seed=3)
            engine = AutoScale(env, seed=3)
            adapt_engine(engine, case, max_runs=80)
            return engine

        engine = trained()
        stats = evaluate_autoscale(engine, case, eval_runs=25,
                                   oracle=OptOracle())
        reference = trained()
        env, oracle = reference.environment, OptOracle()
        reference.freeze()
        want = EpisodeStats(scheduler="autoscale", use_case=case.name,
                            scenario=env.scenario.name, qos_ms=case.qos_ms)
        for _ in range(25):
            observation = reference.observe()
            chosen = reference.predict(case.network, observation)
            optimal = oracle.select(
                env, case, observation,
                state_key=reference.state_of(case.network, observation))
            sweep = env.estimate_all(case.network, observation)
            matched = decision_match(
                float(sweep.energy_mj[sweep.index_of(chosen)]),
                float(sweep.energy_mj[sweep.index_of(optimal)]))
            want.record(reference.step(case, observation).result, matched)
        reference.unfreeze()
        assert stats == want
        assert engine.history == reference.history
        assert engine.rng.bit_generator.state \
            == reference.rng.bit_generator.state
        assert engine.environment.rng.bit_generator.state \
            == env.rng.bit_generator.state

    def test_evaluate_scheduler(self, env, mobilenet_case):
        stats = evaluate_scheduler(env, EdgeCpuFp32(), mobilenet_case,
                                   eval_runs=5)
        assert stats.num_inferences == 5
        assert stats.scheduler == "edge_cpu_fp32"


class TestLeaveOneOut:
    def test_loo_excludes_test_case_from_training(self, zoo):
        cases = [use_case_for(zoo[n])
                 for n in ("mobilenet_v3", "inception_v1", "resnet_50")]
        test_case = cases[0]
        engine, results = loo_train_and_evaluate(
            EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                 seed=0),
            cases, test_case,
            scenarios=("S1",),
            config=RunConfig(train_runs=5, adapt_runs=20, eval_runs=5),
            seed=0, oracle=False,
        )
        assert set(results) == {"S1"}
        stats = results["S1"]
        assert stats.num_inferences == 5
        # Training portion: 2 cases x 5 runs, before adapt/eval.
        trained_networks = {
            step.result.target_key for step in engine.history[:10]
        }
        assert trained_networks  # sanity: history captured

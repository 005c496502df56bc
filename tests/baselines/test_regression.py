"""Tests for the regression baselines (LR / SVR)."""

import numpy as np
import pytest

from repro.baselines.regression import (
    LinearRegression,
    LinearSVR,
    linear_regression_scheduler,
    svr_scheduler,
)
from repro.common import ConfigError, make_rng
from repro.env.qos import use_case_for


class TestLinearRegression:
    def test_recovers_exact_linear_function(self):
        rng = make_rng(0)
        features = rng.normal(size=(200, 3))
        targets = features @ np.array([2.0, -1.0, 0.5]) + 3.0
        model = LinearRegression().fit(features, targets)
        predictions = model.predict(features)
        assert np.allclose(predictions, targets, atol=1e-8)

    def test_intercept_learned(self):
        features = np.zeros((50, 2))
        targets = np.full(50, 7.0)
        model = LinearRegression().fit(features, targets)
        assert model.predict(np.zeros((1, 2)))[0] == pytest.approx(7.0)

    def test_unfitted_predict_rejected(self):
        with pytest.raises(ConfigError):
            LinearRegression().predict(np.zeros((1, 2)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            LinearRegression().fit(np.zeros((3, 2)), np.zeros(4))


class TestLinearSVR:
    def test_fits_noisy_linear_function(self):
        rng = make_rng(1)
        features = rng.normal(size=(300, 4))
        true_w = np.array([1.0, -2.0, 0.5, 0.0])
        targets = features @ true_w + 1.0 + rng.normal(0, 0.05, 300)
        model = LinearSVR(epochs=40, seed=1).fit(features, targets)
        predictions = model.predict(features)
        error = np.mean(np.abs(predictions - targets))
        assert error < 0.25

    def test_epsilon_insensitivity(self):
        # Targets within the epsilon tube produce no pull: a constant
        # fit inside the tube stays near that constant.
        features = np.zeros((100, 1))
        targets = np.zeros(100)
        model = LinearSVR(epsilon=0.5, epochs=10, seed=0)
        model.fit(features, targets)
        assert abs(model.predict(np.zeros((1, 1)))[0]) < 0.5

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError):
            LinearSVR(epsilon=-1.0)


class TestRegressionScheduler:
    @pytest.fixture()
    def cases(self, zoo):
        return [use_case_for(zoo[name])
                for name in ("mobilenet_v3", "resnet_50")]

    def test_train_then_select(self, env, cases):
        scheduler = linear_regression_scheduler()
        scheduler.train(env, cases, rng=make_rng(0), samples_per_case=15)
        target = scheduler.select(env, cases[0], env.observe())
        assert target in env.targets()

    def test_untrained_select_rejected(self, env, cases):
        with pytest.raises(ConfigError):
            linear_regression_scheduler().select(env, cases[0],
                                                 env.observe())

    def test_predictions_positive(self, env, cases):
        scheduler = svr_scheduler()
        scheduler.train(env, cases, rng=make_rng(0), samples_per_case=15)
        energy, latency = scheduler.predict_energy_latency(
            cases[0], env.observe(), list(env.targets())
        )
        assert (energy > 0).all()
        assert (latency > 0).all()

    def test_prefers_qos_feasible_predictions(self, env, cases):
        scheduler = linear_regression_scheduler()
        scheduler.train(env, cases, rng=make_rng(0), samples_per_case=20)
        obs = env.observe()
        target = scheduler.select(env, cases[0], obs)
        _, latency = scheduler.predict_energy_latency(
            cases[0], obs, [target]
        )
        feasible_any = any(
            scheduler.predict_energy_latency(cases[0], obs, [t])[1][0]
            <= cases[0].qos_ms
            for t in env.targets()
        )
        if feasible_any:
            assert latency[0] <= cases[0].qos_ms

    def test_respects_accuracy_filter(self, env, zoo):
        case = use_case_for(zoo["mobilenet_v3"], accuracy_target=65.0)
        scheduler = linear_regression_scheduler()
        scheduler.train(env, [case], rng=make_rng(0), samples_per_case=20)
        target = scheduler.select(env, case, env.observe())
        assert env.accuracy.lookup("mobilenet_v3",
                                   target.precision) >= 65.0

    def test_names(self):
        assert linear_regression_scheduler().name == "lr"
        assert svr_scheduler().name == "svr"

"""Tests for the Bayesian-optimization baseline."""

import math

import numpy as np
import pytest

from repro.baselines.bayesian import (
    BayesianOptScheduler,
    GaussianProcess,
    expected_improvement,
    normal_cdf,
    normal_pdf,
)
from repro.common import ConfigError
from repro.env.qos import use_case_for


class TestGaussianProcess:
    def test_interpolates_training_points(self):
        x = np.linspace(0, 5, 12)[:, None]
        y = np.sin(x).ravel()
        gp = GaussianProcess(length_scale=1.0, noise_var=1e-4).fit(x, y)
        predictions = gp.predict(x)
        assert np.allclose(predictions, y, atol=0.05)

    def test_uncertainty_grows_away_from_data(self):
        x = np.zeros((5, 1))
        y = np.zeros(5)
        gp = GaussianProcess().fit(x, y)
        _, near_std = gp.predict(np.array([[0.1]]), return_std=True)
        _, far_std = gp.predict(np.array([[8.0]]), return_std=True)
        assert far_std[0] > near_std[0]

    def test_mean_reverts_to_prior_far_away(self):
        x = np.zeros((5, 1))
        y = np.full(5, 3.0)
        gp = GaussianProcess().fit(x, y)
        far_mean = gp.predict(np.array([[50.0]]))[0]
        assert far_mean == pytest.approx(3.0, abs=0.2)

    def test_unfitted_rejected(self):
        with pytest.raises(ConfigError):
            GaussianProcess().predict(np.zeros((1, 1)))

    def test_bad_hyperparameters(self):
        with pytest.raises(ConfigError):
            GaussianProcess(length_scale=0.0)


class TestNormalDistribution:
    def test_cdf_is_half_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_cdf_is_symmetric(self):
        z = np.linspace(-8.0, 8.0, 161)
        assert np.allclose(normal_cdf(z) + normal_cdf(-z), 1.0,
                           rtol=0.0, atol=4 * np.finfo(float).eps)

    def test_pdf_peak(self):
        assert normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                                rel=1e-15)

    def test_lower_tail_keeps_relative_precision(self):
        # 1 - Phi(38) would cancel to zero; the erfc form does not.
        assert 0.0 < normal_cdf(-37.0) < 1e-298

    def test_matches_scipy(self):
        """Parity with ``scipy.stats.norm`` on z in [-38, 8].

        Both evaluate erfc at the rounded ``z / sqrt(2)``, and the lower
        tail amplifies that one rounding by ~z**2 (Phi's condition
        number), so parity is a few ulp times ``max(1, z**2)``.  Below
        the smallest normal double the two agree to within it.
        """
        norm = pytest.importorskip("scipy.stats").norm
        z = np.concatenate([np.linspace(-38.0, 8.0, 46_001),
                            [-37.5, -20.0, -1e-300, 0.0, 1e-300]])
        ours, theirs = normal_cdf(z), norm.cdf(z)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        normal = theirs >= tiny
        rel = np.abs(ours - theirs)[normal] / theirs[normal]
        assert (rel <= 4 * eps * np.maximum(1.0, z[normal] ** 2)).all()
        assert (np.abs(ours - theirs)[~normal] <= tiny).all()
        assert (normal_pdf(z) == norm.pdf(z)).all()


class TestExpectedImprovement:
    def test_zero_when_certain_and_worse(self):
        ei = expected_improvement(np.array([5.0]), np.array([0.0]),
                                  best=1.0)
        assert ei[0] == 0.0

    def test_degenerate_std_is_plain_improvement(self):
        # std <= 1e-12 bypasses Phi/phi: EI is max(improvement, 0).
        ei = expected_improvement(np.array([0.5, 2.0, 0.5, 0.5]),
                                  np.array([1e-12, 1e-12, 0.0, 1e-13]),
                                  best=1.0)
        assert ei.tolist() == [0.5, 0.0, 0.5, 0.5]

    def test_positive_when_certain_and_better(self):
        ei = expected_improvement(np.array([0.5]), np.array([0.0]),
                                  best=1.0)
        assert ei[0] == pytest.approx(0.5)

    def test_uncertainty_adds_value(self):
        certain = expected_improvement(np.array([1.0]), np.array([0.0]),
                                       best=1.0)
        uncertain = expected_improvement(np.array([1.0]), np.array([1.0]),
                                         best=1.0)
        assert uncertain[0] > certain[0]

    def test_maximize_mode(self):
        ei = expected_improvement(np.array([2.0]), np.array([0.0]),
                                  best=1.0, minimize=False)
        assert ei[0] == pytest.approx(1.0)


class TestBayesianOptScheduler:
    def test_train_and_select(self, env, zoo):
        cases = [use_case_for(zoo["mobilenet_v3"])]
        scheduler = BayesianOptScheduler(warmup=6, iterations=3, seed=0)
        scheduler.train(env, cases)
        target = scheduler.select(env, cases[0], env.observe())
        assert target in env.targets()

    def test_untrained_rejected(self, env, zoo):
        scheduler = BayesianOptScheduler()
        with pytest.raises(ConfigError):
            scheduler.select(env, use_case_for(zoo["mobilenet_v3"]),
                             env.observe())

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            BayesianOptScheduler(warmup=1)

    def test_predictions_positive(self, env, zoo):
        case = use_case_for(zoo["mobilenet_v3"])
        scheduler = BayesianOptScheduler(warmup=6, iterations=2, seed=1)
        scheduler.train(env, [case])
        energy, latency = scheduler.predict_energy_latency(
            case, env.observe(), list(env.targets())[:10]
        )
        assert (energy > 0).all() and (latency > 0).all()

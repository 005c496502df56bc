"""Bayesian-optimization-based prediction approach (Section III-C).

The paper's BO baseline uses a Gaussian-process surrogate and the expected
improvement acquisition function to "obtain the energy efficiency and
latency estimation functions and use them to predict the optimal target at
runtime".  We implement:

- :class:`GaussianProcess` — exact GP regression with an RBF kernel and a
  noise term, via Cholesky factorization (numpy only);
- :func:`expected_improvement` — the classic EI formula, with the
  standard normal :func:`normal_cdf`/:func:`normal_pdf` from ``math.erfc``;
- :class:`BayesianOptScheduler` — an offline BO campaign that samples the
  design space (random warm-up, then EI-guided), fits GP surrogates over
  (context, action) features for log-energy and log-latency, and at
  runtime predicts both for every candidate target.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.base import Scheduler
from repro.baselines.features import Standardizer, encode_pairs
from repro.common import ConfigError, make_rng

__all__ = ["GaussianProcess", "normal_cdf", "normal_pdf",
           "expected_improvement", "BayesianOptScheduler"]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: ``math.erfc`` over arrays (numpy has no erfc of its own).
_erfc = np.vectorize(math.erfc, otypes=[float])


class GaussianProcess:
    """Exact GP regression: RBF kernel, homoscedastic noise."""

    def __init__(self, length_scale=1.5, signal_var=1.0, noise_var=0.05):
        if min(length_scale, signal_var, noise_var) <= 0:
            raise ConfigError("GP hyperparameters must be positive")
        self.length_scale = length_scale
        self.signal_var = signal_var
        self.noise_var = noise_var
        self._train_x = None
        self._alpha = None
        self._chol = None
        self._mean = 0.0

    def _kernel(self, a, b):
        sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return self.signal_var * np.exp(-0.5 * sq / self.length_scale ** 2)

    def fit(self, features, targets):
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        self._mean = float(targets.mean())
        gram = self._kernel(features, features)
        gram[np.diag_indices_from(gram)] += self.noise_var
        self._chol = np.linalg.cholesky(gram)
        centered = targets - self._mean
        self._alpha = np.linalg.solve(
            self._chol.T, np.linalg.solve(self._chol, centered)
        )
        self._train_x = features
        return self

    def predict(self, features, return_std=False):
        if self._alpha is None:
            raise ConfigError("GP not fitted")
        features = np.asarray(features, dtype=float)
        cross = self._kernel(features, self._train_x)
        mean = cross @ self._alpha + self._mean
        if not return_std:
            return mean
        solved = np.linalg.solve(self._chol, cross.T)
        var = self.signal_var - (solved ** 2).sum(axis=0)
        return mean, np.sqrt(np.clip(var, 1e-12, None))


def normal_cdf(z):
    """Standard normal CDF, ``0.5 * erfc(-z / sqrt(2))``.

    The erfc form keeps full relative precision in the lower tail, where
    ``0.5 * (1 + erf(z / sqrt(2)))`` cancels to zero.
    """
    return 0.5 * _erfc(-np.asarray(z, dtype=float) / _SQRT2)


def normal_pdf(z):
    """Standard normal density, ``exp(-z**2 / 2) / sqrt(2 * pi)``."""
    z = np.asarray(z, dtype=float)
    return np.exp(-z ** 2 / 2.0) / _SQRT_2PI


def expected_improvement(mean, std, best, minimize=True):
    """EI of candidate points against the incumbent ``best``."""
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    improvement = (best - mean) if minimize else (mean - best)
    z = improvement / np.maximum(std, 1e-12)
    ei = improvement * normal_cdf(z) + std * normal_pdf(z)
    return np.where(std > 1e-12, ei, np.maximum(improvement, 0.0))


class BayesianOptScheduler(Scheduler):
    """GP-surrogate scheduler fitted by an EI-driven sampling campaign."""

    name = "bo"

    def __init__(self, warmup=12, iterations=20, seed=0):
        if warmup < 2 or iterations < 0:
            raise ConfigError("warmup >= 2 and iterations >= 0 required")
        self.warmup = warmup
        self.iterations = iterations
        self.seed = seed
        self._scaler = None
        self._log_energy_mj_gp = None
        self._log_latency_ms_gp = None

    def train(self, environment, use_cases, rng=None):
        """Run the BO campaign and fit the final surrogates.

        For each (use case, environment) the campaign executes ``warmup``
        random design points and then ``iterations`` EI-chosen points
        (minimizing energy).  ``environment`` may be a list — one per
        Table-IV scenario — in which case the surrogates are fitted on
        the pooled campaign data.
        """
        environments = (environment
                        if isinstance(environment, (list, tuple))
                        else [environment])
        rng = make_rng(rng if rng is not None else self.seed)
        rows, energies, latencies = [], [], []
        for use_case in use_cases:
          for environment in environments:
            targets = environment.targets()
            case_rows, case_energies_mj = [], []
            for _ in range(self.warmup):
                observation = environment.observe()
                index = int(rng.integers(len(targets)))
                result = environment.execute(use_case.network,
                                             targets[index], observation)
                row = encode_pairs(use_case.network, observation, targets,
                                   environment)[index]
                case_rows.append(row)
                case_energies_mj.append(np.log(result.energy_mj))
                rows.append(row)
                energies.append(np.log(result.energy_mj))
                latencies.append(np.log(result.latency_ms))
            scaler = Standardizer().fit(np.array(case_rows))
            for _ in range(self.iterations):
                observation = environment.observe()
                gp = GaussianProcess().fit(
                    scaler.transform(np.array(case_rows)),
                    np.array(case_energies_mj),
                )
                candidates = encode_pairs(use_case.network, observation,
                                          targets, environment)
                mean, std = gp.predict(scaler.transform(candidates),
                                       return_std=True)
                ei = expected_improvement(mean, std, min(case_energies_mj))
                index = int(np.argmax(ei))
                result = environment.execute(use_case.network,
                                             targets[index], observation)
                row = candidates[index]
                case_rows.append(row)
                case_energies_mj.append(np.log(result.energy_mj))
                rows.append(row)
                energies.append(np.log(result.energy_mj))
                latencies.append(np.log(result.latency_ms))
        self._scaler = Standardizer()
        design = self._scaler.fit_transform(np.array(rows))
        self._log_energy_mj_gp = GaussianProcess().fit(
            design, np.array(energies))
        self._log_latency_ms_gp = GaussianProcess().fit(
            design, np.array(latencies))

    def predict_energy_latency(self, use_case, observation, targets,
                               environment=None):
        """(energy mJ, latency ms) surrogate predictions for targets."""
        if self._log_energy_mj_gp is None:
            raise ConfigError("bo scheduler not trained")
        design = self._scaler.transform(encode_pairs(
            use_case.network, observation, targets, environment))
        return (np.exp(self._log_energy_mj_gp.predict(design)),
                np.exp(self._log_latency_ms_gp.predict(design)))

    def select(self, environment, use_case, observation):
        targets = [
            target for target in environment.targets()
            if use_case.meets_accuracy(environment.accuracy.lookup(
                use_case.network.name, target.precision))
        ]
        energy_mj, latency_ms = self.predict_energy_latency(
            use_case, observation, targets, environment
        )
        feasible = latency_ms <= use_case.qos_ms
        pool = np.flatnonzero(feasible) if feasible.any() \
            else np.arange(len(targets))
        return targets[int(pool[np.argmin(energy_mj[pool])])]

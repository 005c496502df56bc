"""Regression-based prediction approaches (Section III-C).

Two regressors, both implemented from scratch on numpy:

- :class:`LinearRegression` — ordinary least squares ([96] in the paper);
- :class:`LinearSVR` — linear support-vector regression with the
  epsilon-insensitive loss ([21]), trained by averaged subgradient
  descent (a primal Pegasos-style solver; for linear kernels this
  converges to the same solution as the classic dual SMO).

The :class:`RegressionScheduler` follows the paper's recipe: fit one model
for energy and one for latency on profiled executions, then at runtime
predict both quantities for *every* candidate target and pick the minimum
predicted energy whose predicted latency satisfies the QoS constraint.
Both models predict in log space — energy and latency span orders of
magnitude across the design space.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Scheduler
from repro.baselines.features import (
    Standardizer,
    collect_dataset,
    encode_pairs,
)
from repro.common import ConfigError, make_rng

__all__ = [
    "LinearRegression",
    "LinearSVR",
    "RegressionScheduler",
    "linear_regression_scheduler",
    "svr_scheduler",
]


class LinearRegression:
    """Ordinary least squares with an intercept column."""

    def __init__(self):
        self.weights_ = None

    def fit(self, features, targets):
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if len(features) != len(targets):
            raise ConfigError("X and y length mismatch")
        design = np.hstack([features, np.ones((len(features), 1))])
        self.weights_, *_ = np.linalg.lstsq(design, targets, rcond=None)
        return self

    def predict(self, features):
        if self.weights_ is None:
            raise ConfigError("model not fitted")
        features = np.asarray(features, dtype=float)
        design = np.hstack([features, np.ones((len(features), 1))])
        return design @ self.weights_


class LinearSVR:
    """Linear epsilon-insensitive SVR via averaged subgradient descent."""

    def __init__(self, epsilon=0.05, reg=1e-4, epochs=60, lr=0.05,
                 seed=0):
        if epsilon < 0 or reg < 0:
            raise ConfigError("epsilon and reg must be non-negative")
        self.epsilon = epsilon
        self.reg = reg
        self.epochs = epochs
        self.lr = lr
        self.seed = seed
        self.weights_ = None
        self.bias_ = 0.0

    def fit(self, features, targets):
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        n, d = features.shape
        rng = make_rng(self.seed)
        w = np.zeros(d)
        b = 0.0
        w_sum = np.zeros(d)
        b_sum = 0.0
        steps = 0
        for epoch in range(self.epochs):
            order = rng.permutation(n)
            step = self.lr / (1.0 + 0.1 * epoch)
            for i in order:
                residual = features[i] @ w + b - targets[i]
                grad_w = self.reg * w
                grad_b = 0.0
                if residual > self.epsilon:
                    grad_w = grad_w + features[i]
                    grad_b = 1.0
                elif residual < -self.epsilon:
                    grad_w = grad_w - features[i]
                    grad_b = -1.0
                w -= step * grad_w
                b -= step * grad_b
                w_sum += w
                b_sum += b
                steps += 1
        # Polyak averaging stabilizes the subgradient iterates.
        self.weights_ = w_sum / steps
        self.bias_ = b_sum / steps
        return self

    def predict(self, features):
        if self.weights_ is None:
            raise ConfigError("model not fitted")
        return np.asarray(features, dtype=float) @ self.weights_ + self.bias_


class RegressionScheduler(Scheduler):
    """Pick targets by regression-predicted energy under a QoS filter."""

    def __init__(self, model_factory, name):
        self._factory = model_factory
        self.name = name
        self._scaler = None
        self._log_energy_mj_model = None
        self._log_latency_ms_model = None

    def train(self, environment, use_cases, rng=None,
              samples_per_case=40, dataset=None):
        """Fit energy/latency models on profiled executions.

        ``environment`` may be a list of environments (one per scenario);
        profiling samples are pooled across them.  Alternatively pass a
        pre-collected ``dataset``.
        """
        if dataset is None:
            environments = (environment
                            if isinstance(environment, (list, tuple))
                            else [environment])
            datasets = [collect_dataset(env, use_cases, samples_per_case,
                                        rng) for env in environments]
            dataset = _concat_datasets(datasets)
        self._scaler = Standardizer()
        design = self._scaler.fit_transform(dataset.features)
        self._log_energy_mj_model = self._factory().fit(
            design, np.log(dataset.energy_mj)
        )
        self._log_latency_ms_model = self._factory().fit(
            design, np.log(dataset.latency_ms)
        )
        return dataset

    def predict_energy_latency(self, use_case, observation, targets,
                               environment=None):
        """(energy mJ, latency ms) predictions for candidate targets."""
        if self._log_energy_mj_model is None:
            raise ConfigError(f"{self.name} not trained")
        rows = encode_pairs(use_case.network, observation, targets,
                            environment)
        design = self._scaler.transform(rows)
        # Clip log-space predictions: linear extrapolation far outside
        # the training distribution must saturate, not overflow.
        energy_mj = np.exp(np.clip(
            self._log_energy_mj_model.predict(design), -20.0, 20.0))
        latency_ms = np.exp(np.clip(
            self._log_latency_ms_model.predict(design), -20.0, 20.0))
        return energy_mj, latency_ms

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
        if feasible.any():
            pool = np.flatnonzero(feasible)
        else:
            pool = np.arange(len(targets))
        best = pool[np.argmin(energy_mj[pool])]
        return targets[int(best)]


def _concat_datasets(datasets):
    """Pool profiling datasets collected in different scenarios."""
    from repro.baselines.features import ProfilingDataset

    return ProfilingDataset(
        features=np.vstack([d.features for d in datasets]),
        energy_mj=np.concatenate([d.energy_mj for d in datasets]),
        latency_ms=np.concatenate([d.latency_ms for d in datasets]),
        contexts=np.vstack([d.contexts for d in datasets]),
        target_keys=sum((d.target_keys for d in datasets), []),
        use_case_names=sum((d.use_case_names for d in datasets), []),
    )


def linear_regression_scheduler():
    """The paper's LR baseline."""
    return RegressionScheduler(LinearRegression, "lr")


def svr_scheduler():
    """The paper's SVR baseline."""
    return RegressionScheduler(LinearSVR, "svr")

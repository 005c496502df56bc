"""Classification-based prediction approaches (Section III-C).

These baselines predict the *optimal execution target* directly from the
context (network characteristics + runtime variance) instead of modelling
energy/latency:

- :class:`KNNClassifier` — k-nearest-neighbour majority vote ([114]);
- :class:`LinearSVM` — one-vs-rest linear SVM trained with the Pegasos
  primal solver ([102]).

The paper's key observation (Fig. 7) is that although their
mis-classification ratios look modest (12.7% / 14.3%), a wrong class can
be wrong by a *lot* of energy, because the classifier has no notion of
the energy magnitude it is giving up — our implementations preserve that
failure mode by construction.

Training labels come from the Opt oracle evaluated at each profiled
context.  Classes are execution-target *slots* — (location, processor,
precision) — because that is the paper's notion of "the optimal execution
target"; DVFS is a continuous refinement the classifiers do not model
(they execute their predicted slot at the top V/F step, one structural
reason they trail the regression approaches on energy).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.baselines.base import Scheduler
from repro.baselines.features import Standardizer, encode_context
from repro.baselines.oracle import OptOracle
from repro.common import ConfigError, make_rng

__all__ = ["KNNClassifier", "LinearSVM", "ClassificationScheduler",
           "knn_scheduler", "svm_scheduler", "slot_of"]


def slot_of(target):
    """The classification label of a target: location/role/precision."""
    return f"{target.location.value}/{target.role}/{target.precision.label}"


class KNNClassifier:
    """k-nearest-neighbour majority vote in standardized feature space."""

    def __init__(self, k=5):
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        self.k = k
        self._points = None
        self._labels = None

    def fit(self, features, labels):
        features = np.asarray(features, dtype=float)
        if len(features) != len(labels):
            raise ConfigError("X and y length mismatch")
        if len(features) == 0:
            raise ConfigError("empty training set")
        self._points = features
        self._labels = list(labels)
        return self

    def predict_one(self, vector):
        if self._points is None:
            raise ConfigError("model not fitted")
        distances = np.linalg.norm(self._points - vector, axis=1)
        k = min(self.k, len(distances))
        nearest = np.argpartition(distances, k - 1)[:k]
        votes = Counter(self._labels[i] for i in nearest)
        return votes.most_common(1)[0][0]

    def predict(self, features):
        return [self.predict_one(row) for row in np.asarray(features)]


class LinearSVM:
    """One-vs-rest linear SVM (hinge loss, Pegasos subgradient solver)."""

    def __init__(self, reg=1e-3, epochs=60, seed=0):
        self.reg = reg
        self.epochs = epochs
        self.seed = seed
        self.classes_ = None
        self._weights = None
        self._biases = None

    def fit(self, features, labels):
        features = np.asarray(features, dtype=float)
        labels = list(labels)
        self.classes_ = sorted(set(labels))
        n, d = features.shape
        self._weights = np.zeros((len(self.classes_), d))
        self._biases = np.zeros(len(self.classes_))
        rng = make_rng(self.seed)
        for class_index, cls in enumerate(self.classes_):
            signs = np.array([1.0 if y == cls else -1.0 for y in labels])
            w = np.zeros(d)
            b = 0.0
            step_count = 0
            for epoch in range(self.epochs):
                for i in rng.permutation(n):
                    step_count += 1
                    step = 1.0 / (self.reg * step_count)
                    margin = signs[i] * (features[i] @ w + b)
                    w *= (1.0 - step * self.reg)
                    if margin < 1.0:
                        w += step * signs[i] * features[i]
                        b += step * signs[i] * 0.1
            self._weights[class_index] = w
            self._biases[class_index] = b
        return self

    def decision_function(self, features):
        if self._weights is None:
            raise ConfigError("model not fitted")
        return np.asarray(features, dtype=float) @ self._weights.T \
            + self._biases

    def predict(self, features):
        scores = self.decision_function(features)
        return [self.classes_[i] for i in np.argmax(scores, axis=1)]

    def predict_one(self, vector):
        return self.predict(vector[None, :])[0]


class ClassificationScheduler(Scheduler):
    """Pick targets by classifying the context to an optimal-target key."""

    def __init__(self, model_factory, name):
        self._factory = model_factory
        self.name = name
        self._scaler = None
        self._model = None
        self._fallback_key = None

    @staticmethod
    def collect_labels(environment, use_cases, rng=None,
                       samples_per_case=40):
        """Profile contexts and label them with the Opt oracle."""
        rng = make_rng(rng)
        oracle = OptOracle()
        rows, labels = [], []
        for use_case in use_cases:
            for _ in range(samples_per_case):
                observation = environment.observe()
                target = oracle.select(environment, use_case, observation)
                rows.append(encode_context(use_case.network, observation))
                labels.append(slot_of(target))
                # Advance the environment the way a measurement would.
                environment.execute(use_case.network, target, observation)
        return rows, labels

    def fit_contexts(self, rows, labels):
        """Fit the classifier on pre-collected labelled contexts."""
        if not rows:
            raise ConfigError("empty training set")
        self._scaler = Standardizer()
        design = self._scaler.fit_transform(np.array(rows))
        self._model = self._factory().fit(design, labels)
        self._fallback_key = Counter(labels).most_common(1)[0][0]
        return self

    def train(self, environment, use_cases, rng=None,
              samples_per_case=40):
        """Label profiled contexts with the Opt oracle and fit.

        ``environment`` may be a list of environments (e.g. one per
        Table-IV scenario); the training set is pooled across them.
        """
        environments = (environment if isinstance(environment, (list,
                                                                tuple))
                        else [environment])
        rng = make_rng(rng)
        rows, labels = [], []
        for env in environments:
            env_rows, env_labels = self.collect_labels(
                env, use_cases, rng, samples_per_case
            )
            rows.extend(env_rows)
            labels.extend(env_labels)
        self.fit_contexts(rows, labels)
        return labels

    def select(self, environment, use_case, observation):
        if self._model is None:
            raise ConfigError(f"{self.name} not trained")
        vector = self._scaler.transform(
            encode_context(use_case.network, observation)[None, :]
        )[0]
        slot = self._model.predict_one(vector)
        by_slot = {}
        for target in environment.targets():
            best = by_slot.get(slot_of(target))
            if best is None or target.vf_index > best.vf_index:
                by_slot[slot_of(target)] = target
        return by_slot.get(slot) or by_slot[self._fallback_key]


def knn_scheduler(k=5):
    """The paper's KNN baseline."""
    return ClassificationScheduler(lambda: KNNClassifier(k=k), "knn")


def svm_scheduler():
    """The paper's SVM baseline."""
    return ClassificationScheduler(LinearSVM, "svm")

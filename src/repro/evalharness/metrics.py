"""Metrics used throughout the paper's evaluation.

- **PPW** (performance per watt) — for single inferences this reduces to
  inferences per joule; figures always report it *normalized* to a named
  baseline, so we provide ratio helpers.
- **QoS violation ratio** — fraction of inferences exceeding the target.
- **MAPE** — mean absolute percentage error of a predictor (Fig. 7).
- **Misclassification ratio** — for the classification baselines.
- **Prediction accuracy** — how often a scheduler's decision matches the
  oracle's, counting near-ties (energy within 1%) as matches, exactly the
  criterion under which the paper reports 97.9% (Fig. 13: AutoScale
  "mis-predicts the optimal target only when the energy difference ...
  is less than 1%").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.common import ConfigError

__all__ = [
    "EpisodeStats",
    "availability_pct",
    "mape",
    "misclassification_ratio",
    "ppw_ratio",
    "qos_violation_ratio",
    "decision_match",
    "summarize",
]


def availability_pct(statuses):
    """Fraction of requests that delivered a result, in percent.

    Takes an iterable of :class:`~repro.core.tracing.TraceRecord`
    status strings (``"ok"`` and ``"degraded"`` both delivered;
    ``"failed"`` did not).
    """
    statuses = list(statuses)
    if not statuses:
        raise ConfigError("no statuses")
    delivered = sum(1 for status in statuses if status != "failed")
    return delivered / len(statuses) * 100.0


def mape(predicted, measured):
    """Mean absolute percentage error, in percent."""
    predicted = np.asarray(predicted, dtype=float)
    measured = np.asarray(measured, dtype=float)
    if predicted.shape != measured.shape:
        raise ConfigError("prediction/measurement shape mismatch")
    if len(predicted) == 0:
        raise ConfigError("empty MAPE input")
    if np.any(measured <= 0):
        raise ConfigError("measured values must be positive")
    return float(np.mean(np.abs(predicted - measured) / measured) * 100.0)


def misclassification_ratio(predicted_labels, true_labels):
    """Fraction of label mismatches, in percent."""
    if len(predicted_labels) != len(true_labels):
        raise ConfigError("label list length mismatch")
    if not predicted_labels:
        raise ConfigError("empty label lists")
    wrong = sum(1 for p, t in zip(predicted_labels, true_labels) if p != t)
    return wrong / len(predicted_labels) * 100.0


def qos_violation_ratio(latencies_ms, qos_ms):
    """Fraction of inferences over the QoS target, in percent."""
    latencies = np.asarray(latencies_ms, dtype=float)
    if len(latencies) == 0:
        raise ConfigError("no latencies")
    return float(np.mean(latencies > qos_ms) * 100.0)


def ppw_ratio(baseline_energy_mj, candidate_energy_mj):
    """PPW of the candidate normalized to the baseline.

    Since PPW is proportional to 1/energy for a fixed workload, the ratio
    is baseline energy over candidate energy — ">1" means the candidate
    is more energy-efficient.
    """
    if baseline_energy_mj <= 0 or candidate_energy_mj <= 0:
        raise ConfigError("energies must be positive")
    return baseline_energy_mj / candidate_energy_mj


def decision_match(chosen_energy_mj, optimal_energy_mj, tolerance=0.01):
    """Whether a decision counts as "optimal" under the 1% criterion."""
    if optimal_energy_mj <= 0:
        raise ConfigError("optimal energy must be positive")
    return (chosen_energy_mj
            <= optimal_energy_mj * (1.0 + tolerance) + 1e-12)


@dataclass
class EpisodeStats:
    """Accumulated measurements of one (scheduler, use case, scenario) run."""

    scheduler: str
    use_case: str
    scenario: str
    energies_mj: List[float] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    qos_ms: float = 0.0
    decisions: Dict[str, int] = field(default_factory=dict)
    oracle_matches: int = 0
    oracle_checked: int = 0

    def __post_init__(self):
        if not math.isfinite(self.qos_ms) or self.qos_ms < 0:
            raise ConfigError(f"invalid QoS target {self.qos_ms} ms")
        for name, series in (("energies_mj", self.energies_mj),
                             ("latencies_ms", self.latencies_ms)):
            if any(not math.isfinite(value) or value <= 0
                   for value in series):
                raise ConfigError(
                    f"{name} must contain finite positive values"
                )

    def record(self, result, matched_oracle=None):
        self.energies_mj.append(result.energy_mj)
        self.latencies_ms.append(result.latency_ms)
        self.decisions[result.target_key] = \
            self.decisions.get(result.target_key, 0) + 1
        if matched_oracle is not None:
            self.oracle_checked += 1
            self.oracle_matches += int(matched_oracle)

    @property
    def num_inferences(self):
        return len(self.energies_mj)

    @property
    def mean_energy_mj(self):
        if not self.energies_mj:
            raise ConfigError("no inferences recorded")
        return float(np.mean(self.energies_mj))

    @property
    def mean_latency_ms(self):
        return float(np.mean(self.latencies_ms))

    @property
    def violations(self):
        """Inferences strictly over the QoS target."""
        return sum(1 for latency_ms in self.latencies_ms
                   if latency_ms > self.qos_ms)

    @property
    def qos_violation_pct(self):
        return qos_violation_ratio(self.latencies_ms, self.qos_ms)

    @property
    def prediction_accuracy_pct(self):
        if self.oracle_checked == 0:
            return float("nan")
        return self.oracle_matches / self.oracle_checked * 100.0

    def decision_shares(self):
        """Fraction of decisions per target key."""
        total = sum(self.decisions.values())
        return {key: count / total
                for key, count in sorted(self.decisions.items())}


def summarize(episodes, baseline):
    """One scheduler's figure entry: normalized PPW and QoS violation %.

    Each episode is scored with :func:`ppw_ratio` against the
    ``baseline`` episode of the same (use case, scenario) and the ratios
    are averaged; episodes with no baseline episode are skipped.
    Violations are pooled over inferences, not averaged per episode.
    """
    baseline_energy_mj = {(stats.use_case, stats.scenario):
                          stats.mean_energy_mj for stats in baseline}
    ratios, violations, total = [], 0, 0
    for stats in episodes:
        key = (stats.use_case, stats.scenario)
        if key not in baseline_energy_mj:
            continue
        ratios.append(ppw_ratio(baseline_energy_mj[key],
                                stats.mean_energy_mj))
        violations += stats.violations
        total += stats.num_inferences
    if not ratios:
        raise ConfigError("no episode has a baseline episode")
    return {"ppw_norm": float(np.mean(ratios)),
            "qos_violation_pct": violations / total * 100.0}

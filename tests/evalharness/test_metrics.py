"""Tests for the evaluation metrics."""

import math

import pytest

from repro.common import ConfigError
from repro.env.result import ExecutionResult
from repro.evalharness.metrics import (
    EpisodeStats,
    decision_match,
    mape,
    misclassification_ratio,
    ppw_ratio,
    qos_violation_ratio,
    summarize,
)


class TestMape:
    def test_exact_predictions(self):
        assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_known_value(self):
        # |1.1-1|/1 and |1.8-2|/2 -> mean of 10% and 10%.
        assert mape([1.1, 1.8], [1.0, 2.0]) == pytest.approx(10.0)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            mape([1.0], [1.0, 2.0])

    def test_non_positive_measured_rejected(self):
        with pytest.raises(ConfigError):
            mape([1.0], [0.0])


class TestMisclassification:
    def test_all_correct(self):
        assert misclassification_ratio(["a", "b"], ["a", "b"]) == 0.0

    def test_half_wrong(self):
        assert misclassification_ratio(["a", "x"], ["a", "b"]) == 50.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            misclassification_ratio([], [])


class TestQosViolation:
    def test_percentage(self):
        assert qos_violation_ratio([10, 60, 40, 70], 50.0) == 50.0

    def test_boundary_not_a_violation(self):
        assert qos_violation_ratio([50.0], 50.0) == 0.0


class TestPpwRatio:
    def test_improvement(self):
        assert ppw_ratio(100.0, 10.0) == pytest.approx(10.0)

    def test_degradation(self):
        assert ppw_ratio(10.0, 100.0) == pytest.approx(0.1)


class TestDecisionMatch:
    def test_exact(self):
        assert decision_match(10.0, 10.0)

    def test_within_one_percent(self):
        """Fig. 13's criterion: energy within 1% of optimal counts."""
        assert decision_match(10.099, 10.0)
        assert not decision_match(10.2, 10.0)

    def test_cheaper_than_optimal_counts(self):
        assert decision_match(9.0, 10.0)


class TestEpisodeStats:
    def _result(self, latency=20.0, energy=50.0, key="local/cpu/fp32/vf0"):
        return ExecutionResult(latency_ms=latency, energy_mj=energy,
                               estimated_energy_mj=energy,
                               accuracy_pct=70.0, target_key=key)

    def test_aggregates(self):
        stats = EpisodeStats("s", "c", "S1", qos_ms=50.0)
        stats.record(self._result(latency=40.0, energy=60.0))
        stats.record(self._result(latency=60.0, energy=40.0))
        assert stats.num_inferences == 2
        assert stats.mean_energy_mj == pytest.approx(50.0)
        assert stats.mean_latency_ms == pytest.approx(50.0)
        assert stats.qos_violation_pct == pytest.approx(50.0)

    def test_decision_shares(self):
        stats = EpisodeStats("s", "c", "S1", qos_ms=50.0)
        stats.record(self._result(key="a"))
        stats.record(self._result(key="a"))
        stats.record(self._result(key="b"))
        shares = stats.decision_shares()
        assert shares["a"] == pytest.approx(2 / 3)
        assert shares["b"] == pytest.approx(1 / 3)

    def test_oracle_tracking(self):
        stats = EpisodeStats("s", "c", "S1", qos_ms=50.0)
        stats.record(self._result(), matched_oracle=True)
        stats.record(self._result(), matched_oracle=False)
        stats.record(self._result(), matched_oracle=True)
        assert stats.prediction_accuracy_pct == pytest.approx(200 / 3)

    def test_prediction_accuracy_nan_when_unchecked(self):
        stats = EpisodeStats("s", "c", "S1", qos_ms=50.0)
        stats.record(self._result())
        assert math.isnan(stats.prediction_accuracy_pct)

    def test_violations_strictly_over_target(self):
        """A latency equal to the QoS target is not a violation."""
        stats = EpisodeStats("s", "c", "S1", qos_ms=50.0)
        for latency in (49.0, 50.0, 50.001, 80.0):
            stats.record(self._result(latency=latency))
        assert stats.violations == 2

    def test_empty_stats_rejected(self):
        stats = EpisodeStats("s", "c", "S1", qos_ms=50.0)
        with pytest.raises(ConfigError):
            _ = stats.mean_energy_mj


class TestSummarize:
    @staticmethod
    def _episode(scheduler, use_case, scenario, samples, qos_ms=50.0):
        stats = EpisodeStats(scheduler, use_case, scenario, qos_ms=qos_ms)
        for latency_ms, energy_mj in samples:
            stats.record(ExecutionResult(
                latency_ms=latency_ms, energy_mj=energy_mj,
                estimated_energy_mj=energy_mj, accuracy_pct=70.0,
                target_key="local/cpu/fp32/vf0",
            ))
        return stats

    def test_skips_unmatched_and_pools_violations(self):
        baseline = [
            self._episode("base", "a", "S1", [(10.0, 100.0)]),
            self._episode("base", "b", "S1", [(10.0, 40.0)]),
        ]
        episodes = [
            # 1 of 1 over the target; PPW 100/50 = 2.
            self._episode("x", "a", "S1", [(60.0, 50.0)]),
            # 1 of 3 over the target; PPW 40/10 = 4.
            self._episode("x", "b", "S1",
                          [(20.0, 10.0), (50.0, 10.0), (70.0, 10.0)]),
            # No baseline episode for (a, S2): skipped entirely.
            self._episode("x", "a", "S2", [(90.0, 1.0)] * 4),
        ]
        summary = summarize(episodes, baseline)
        assert summary == {
            "ppw_norm": pytest.approx(3.0),
            # Pooled 2 of 4 inferences, not the 75% mean of 100% and 33%.
            "qos_violation_pct": pytest.approx(50.0),
        }

    def test_baseline_scores_one(self):
        baseline = [self._episode("base", "a", "S1", [(10.0, 7.0)])]
        assert summarize(baseline, baseline)["ppw_norm"] == 1.0

    def test_no_matched_episode_rejected(self):
        baseline = [self._episode("base", "a", "S1", [(10.0, 7.0)])]
        episodes = [self._episode("x", "b", "S1", [(10.0, 7.0)])]
        with pytest.raises(ConfigError):
            summarize(episodes, baseline)

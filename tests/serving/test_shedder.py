"""Tests for deadline derivation, shed outcomes, and the shed ledger."""

import numpy as np
import pytest

from repro.common import ConfigError
from repro.serving.shedder import (
    DeadlinePolicy,
    ShedReason,
    SheddedRequest,
    ShedStats,
    min_feasible_latency_ms,
)


def _shed(reason=ShedReason.EXPIRED, **overrides):
    fields = dict(reason=reason, name="svc", at_ms=10.0, shed_at_ms=50.0,
                  deadline_ms=40.0, queue_delay_ms=40.0)
    fields.update(overrides)
    return SheddedRequest(**fields)


class TestSheddedRequest:
    def test_bills_zero_everything(self):
        shed = _shed()
        assert shed.latency_ms == 0.0
        assert shed.energy_mj == 0.0
        assert shed.estimated_energy_mj == 0.0
        assert shed.accuracy_pct == 0.0

    def test_discriminators_and_target_key(self):
        shed = _shed(reason=ShedReason.QUEUE_FULL)
        assert shed.shed and not shed.failed
        assert shed.target_key == "shed/queue_full"
        assert not shed.meets_qos(1e9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            _shed(shed_at_ms=5.0)  # shed before arrival
        with pytest.raises(ConfigError):
            _shed(queue_delay_ms=-1.0)


class TestShedStats:
    def test_partitions_offered_requests(self):
        stats = ShedStats()
        for _ in range(10):
            stats.note_offered()
        for _ in range(7):
            stats.note_served()
        stats.note_shed(ShedReason.EXPIRED)
        stats.note_shed(ShedReason.EXPIRED)
        stats.note_shed(ShedReason.INFEASIBLE)
        assert stats.served + stats.total_sheds == stats.offered
        assert stats.sheds == {"expired": 2, "infeasible": 1}
        assert stats.shed_pct() == pytest.approx(30.0)

    def test_sheds_are_free(self):
        stats = ShedStats()
        stats.note_shed(ShedReason.QUEUE_FULL)
        assert stats.billed_energy_mj == 0.0
        assert stats.as_dict()["billed_energy_mj"] == 0.0

    def test_idle_ledger_reads_zero(self):
        assert ShedStats().shed_pct() == 0.0


class TestDeadlinePolicy:
    def test_default_is_exactly_the_qos_budget(self):
        assert DeadlinePolicy().deadline_ms(100.0, 33.0) == 133.0

    def test_factor_and_slack(self):
        policy = DeadlinePolicy(qos_factor=2.0, slack_ms=10.0)
        assert policy.deadline_ms(100.0, 33.0) == pytest.approx(176.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            DeadlinePolicy(qos_factor=0.0)
        with pytest.raises(ConfigError):
            DeadlinePolicy(slack_ms=-1.0)


class _FakeSweep:
    def __init__(self, latency_ms):
        self.latency_ms = np.asarray(latency_ms)


class TestFeasibilityFloor:
    def test_unmasked_minimum(self):
        assert min_feasible_latency_ms(_FakeSweep([30.0, 10.0, 20.0])) \
            == 10.0

    def test_mask_restricts_the_floor(self):
        sweep = _FakeSweep([30.0, 10.0, 20.0])
        allowed = np.array([True, False, True])
        assert min_feasible_latency_ms(sweep, allowed) == 20.0

    def test_all_false_mask_means_no_mask(self):
        sweep = _FakeSweep([30.0, 10.0, 20.0])
        allowed = np.zeros(3, dtype=bool)
        assert min_feasible_latency_ms(sweep, allowed) == 10.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            min_feasible_latency_ms(_FakeSweep([1.0, 2.0]),
                                    np.array([True]))

    def test_oversized_mask_rejected(self):
        with pytest.raises(ConfigError):
            min_feasible_latency_ms(_FakeSweep([1.0, 2.0]),
                                    np.ones(3, dtype=bool))

    def test_2d_mask_rejected(self):
        """The floor is per-request scalar; a batched (n, targets)
        matrix must be rejected, not silently broadcast."""
        with pytest.raises(ConfigError):
            min_feasible_latency_ms(_FakeSweep([1.0, 2.0]),
                                    np.ones((1, 2), dtype=bool))



class TestShedVerdict:
    """The verdict the serving drain records for one head-of-queue
    request, read off the shed ledger and the shed outcome: the drain's
    two checks follow the inclusive-deadline convention of
    :class:`DeadlinePolicy`, and ``EXPIRED`` is judged before
    ``INFEASIBLE``."""

    @staticmethod
    def _verdict(zoo, deadline_offset_ms):
        from tests.serving.test_pipeline import drain_one_request

        pipeline, served = drain_one_request(zoo, deadline_offset_ms)
        if served.delivered:
            assert pipeline.shed_stats.served == 1
            assert pipeline.shed_stats.sheds == {}
            return None
        shed = served.outcome
        assert pipeline.shed_stats.sheds == {shed.reason.value: 1}
        assert shed.energy_mj == 0.0
        return shed

    @staticmethod
    def _floor_ms(zoo):
        from tests.serving.test_pipeline import drain_floor_ms

        return drain_floor_ms(zoo)

    def test_servable_inside_budget(self, zoo):
        assert self._verdict(zoo, 2.0 * self._floor_ms(zoo)) is None

    def test_expired_once_strictly_past_deadline(self, zoo):
        shed = self._verdict(zoo, -0.1)
        assert shed.reason is ShedReason.EXPIRED
        assert shed.shed_at_ms > shed.deadline_ms

    def test_at_deadline_is_not_expired(self, zoo):
        # Inclusive deadline: remaining == 0 is still alive; the
        # positive service floor then overshoots => INFEASIBLE.
        assert self._floor_ms(zoo) > 0.0
        shed = self._verdict(zoo, 0.0)
        assert shed.reason is ShedReason.INFEASIBLE
        assert shed.shed_at_ms == shed.deadline_ms

    def test_floor_landing_exactly_on_deadline_is_kept(self, zoo):
        assert self._verdict(zoo, self._floor_ms(zoo)) is None

    def test_floor_one_step_past_deadline_is_infeasible(self, zoo):
        floor_ms = self._floor_ms(zoo)
        assert floor_ms > 0.5
        shed = self._verdict(zoo, floor_ms - 0.5)
        assert shed.reason is ShedReason.INFEASIBLE
        assert shed.shed_at_ms < shed.deadline_ms

    def test_expired_takes_precedence_over_infeasible(self, zoo):
        # Past the deadline both conditions hold; the verdict must be
        # EXPIRED — mid-batch clock movement can convert a drain-start
        # infeasible into an expired, and the ledger must say which.
        assert self._floor_ms(zoo) > 0.0
        shed = self._verdict(zoo, -100.0)
        assert shed.reason is ShedReason.EXPIRED

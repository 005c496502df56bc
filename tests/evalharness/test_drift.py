"""Drift-sweep gates (ISSUE 9 acceptance).

The headline pins, at the shared seed:

- guarded serving **strictly dominates** unguarded on post-drift QoS
  violations in every drifted scenario;
- the guard **never fires** on stationary traffic (zero alarms, stage
  HEALTHY, and the two arms' violation counts identical);
- every guard tick is dispatched through the ``repro.sim`` heap as a
  typed ``GUARD_TICK`` event — no per-request sweeps.

The sweep runs once per module (it replays eight full serving episodes)
on a shortened episode; ``repro-autoscale drift`` prints the
full-length numbers.
"""

import pytest

from repro.common import ConfigError, UnknownKeyError
from repro.evalharness.drift import (
    DRIFT_SCENARIOS,
    DriftScenario,
    build_drift_scenario,
    drift_episode,
    drift_sweep,
)
from repro.faults.plan import FaultPlan
from repro.sim.events import EventKind

_DRIFTED = ("rssi_shift", "corunner_flip", "cloud_slowdown")
_EPISODE = dict(duration_ms=40_000.0, drift_at_ms=15_000.0, seed=0)


@pytest.fixture(scope="module")
def sweep_rows():
    rows = drift_sweep(**_EPISODE)
    return {(row["scenario"], row["guarded"]): row for row in rows}


class TestScenarioDefinitions:
    def test_catalog_names(self):
        assert set(DRIFT_SCENARIOS) == {"stationary", *_DRIFTED}

    def test_stationary_does_not_drift(self):
        assert not DRIFT_SCENARIOS["stationary"].drifts
        assert all(DRIFT_SCENARIOS[name].drifts for name in _DRIFTED)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(UnknownKeyError, match="drift scenario"):
            build_drift_scenario("meteor_strike")

    def test_scenario_validation(self):
        with pytest.raises(ConfigError, match="name"):
            DriftScenario("", "anonymous")
        with pytest.raises(ConfigError, match="straggler_prob"):
            DriftScenario("bad", "x", straggler_prob=1.5)
        with pytest.raises(ConfigError, match="straggler_factor"):
            DriftScenario("bad", "x", straggler_factor=0.5)

    def test_episode_validation(self):
        with pytest.raises(ConfigError, match="duration_ms"):
            drift_episode("stationary", True, duration_ms=0.0)
        with pytest.raises(ConfigError, match="drift_at_ms"):
            drift_episode("stationary", True, duration_ms=1_000.0,
                          drift_at_ms=2_000.0)


class TestGuardedDominance:
    @pytest.mark.parametrize("scenario", _DRIFTED)
    def test_strictly_fewer_post_drift_violations(self, sweep_rows,
                                                  scenario):
        unguarded = sweep_rows[(scenario, False)]
        guarded = sweep_rows[(scenario, True)]
        assert guarded["post_drift_violations"] \
            < unguarded["post_drift_violations"]

    @pytest.mark.parametrize("scenario", _DRIFTED)
    def test_guard_actually_intervened(self, sweep_rows, scenario):
        guard = sweep_rows[(scenario, True)]["guard"]
        assert guard["escalations"] >= 1
        assert guard["alarms"]

    def test_both_arms_face_identical_offered_load(self, sweep_rows):
        for scenario in DRIFT_SCENARIOS:
            assert sweep_rows[(scenario, False)]["offered"] \
                == sweep_rows[(scenario, True)]["offered"]


class TestStationaryNeverFires:
    def test_zero_alarms(self, sweep_rows):
        guard = sweep_rows[("stationary", True)]["guard"]
        assert guard["alarms"] == {}
        assert guard["stage"] == "healthy"
        assert guard["escalations"] == 0
        assert guard["ticks"] > 0

    def test_observer_guard_changes_nothing(self, sweep_rows):
        unguarded = sweep_rows[("stationary", False)]
        guarded = sweep_rows[("stationary", True)]
        assert guarded["post_drift_violations"] \
            == unguarded["post_drift_violations"]
        assert guarded["total_energy_mj"] == unguarded["total_energy_mj"]

    def test_unguarded_arm_never_ticks(self, sweep_rows):
        for scenario in DRIFT_SCENARIOS:
            assert sweep_rows[(scenario, False)]["guard"]["ticks"] == 0


class TestTicksThroughHeap:
    def test_guard_ticks_are_typed_kernel_events(self, monkeypatch):
        from repro.sim.kernel import EventKernel

        scheduled = {"guard_ticks": 0}
        original = EventKernel.schedule

        def counting_schedule(self, time_ms, kind, payload=None,
                              callback=None):
            if kind is EventKind.GUARD_TICK:
                scheduled["guard_ticks"] += 1
            return original(self, time_ms, kind, payload=payload,
                            callback=callback)

        monkeypatch.setattr(EventKernel, "schedule", counting_schedule)
        row = drift_episode("stationary", True, duration_ms=10_000.0,
                            drift_at_ms=5_000.0, seed=0)
        ticks = row["guard"]["ticks"]
        assert ticks > 0
        # Every evaluation rode a scheduled GUARD_TICK (the final
        # pending one is cancelled when the stream drains).
        assert scheduled["guard_ticks"] >= ticks


class TestComposition:
    def test_chaos_plan_composes(self):
        plan = FaultPlan(straggler_prob=0.2, straggler_factor=2.0)
        row = drift_episode("cloud_slowdown", True, plan=plan,
                            duration_ms=10_000.0, drift_at_ms=4_000.0,
                            seed=0)
        assert row["faults"] is not None
        assert row["scenario"] == "cloud_slowdown"

    def test_row_shape(self, sweep_rows):
        row = sweep_rows[("rssi_shift", True)]
        for key in ("offered", "post_drift_requests",
                    "post_drift_violations", "post_drift_violation_pct",
                    "guard", "brownout_escalations", "sheds_by_reason"):
            assert key in row

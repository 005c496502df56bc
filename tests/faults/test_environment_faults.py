"""The environment's fault path: ``env.faults`` builds one injector.

Every environment carries a :class:`~repro.faults.FaultInjector`, the
fault-free one by default, so a caller's deadline is enforced whatever
plan is attached, and outage coverage is read from the plan and the
clock at each attempt's start.
"""

import pytest

from repro.env.environment import EdgeCloudEnvironment
from repro.env.target import Location
from repro.faults import (
    FailedAttempt,
    FaultKind,
    FaultPlan,
    FaultStats,
    OutageWindow,
)
from repro.hardware.devices import build_device


def _env(faults):
    return EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                seed=0, faults=faults)


def _cloud_target(env):
    return next(target for target in env.targets()
                if target.location is Location.CLOUD)


@pytest.mark.parametrize("faults", [None, FaultPlan.none()],
                         ids=["faults_none", "fault_free_plan"])
def test_deadline_times_out_a_remote_attempt(faults, zoo):
    env = _env(faults)
    assert env.faults == FaultPlan.none()
    assert isinstance(env.fault_stats, FaultStats)
    network = zoo["resnet_50"]
    target = _cloud_target(env)
    nominal_ms = env.estimate(network, target, env.observe()).latency_ms
    # A quarter of the nominal latency: far below any jittered run.
    deadline_ms = nominal_ms / 4.0
    before_ms = env.clock.now_ms

    result = env.execute(network, target, deadline_ms=deadline_ms)

    assert isinstance(result, FailedAttempt)
    assert result.kind is FaultKind.TIMEOUT
    assert result.latency_ms == deadline_ms
    stats = env.fault_stats
    assert stats.attempts == 1
    assert stats.failures == {FaultKind.TIMEOUT.value: 1}
    assert stats.billed_energy_mj == result.energy_mj
    assert env.clock.now_ms == before_ms + (deadline_ms + env.think_time_ms)


def test_outage_coverage_follows_the_clock_across_rewinds(zoo):
    """No outage state outlives a rewind or a mid-run attach: whether
    an attempt is dark depends on the plan and its start time alone."""
    env = _env(None)
    network = zoo["mobilenet_v3"]
    target = _cloud_target(env)
    env.advance_clock_to(25_000.0)
    env.faults = FaultPlan(outages=(OutageWindow(
        "cloud", start_ms=1_000.0, duration_ms=2_000.0,
        period_ms=10_000.0),))
    outcomes = []
    for at_ms in (1_500.0, 21_500.0, 4_000.0):
        # Each probe starts from a rewound clock; 21.5 s lies in the
        # third occurrence, 4 s between occurrences.
        env.rewind_clock()
        env.advance_clock_to(at_ms)
        result = env.execute(network, target)
        outcomes.append(result.kind if result.failed else None)
    assert outcomes == [FaultKind.UNAVAILABLE, FaultKind.UNAVAILABLE,
                        None]
    assert env.fault_stats.failures == {FaultKind.UNAVAILABLE.value: 2}

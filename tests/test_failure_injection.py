"""Failure-injection tests: connectivity loss and recovery.

The paper's weak-signal scenarios degrade the link; real phones also lose
it entirely (tunnels, elevators, AP reboots).  These tests verify both
the substrate (an outage makes remote execution catastrophically slow,
never impossible) and the scheduler (a trained engine re-learns away from
the cloud during an outage and back after it) — plus the chaos
regressions of the ``repro.faults`` request-level machinery: default-path
bit-parity, retry/degradation behaviour, breaker determinism, and the
failed-attempt energy-conservation property.
"""

import pytest

from repro.common import ConfigError, make_rng
from repro.env.target import ActionSpace
from repro.core.engine import AutoScale
from repro.core.service import AutoScaleService
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.env.scenarios import Scenario
from repro.faults import FaultPlan, OutageWindow, ResiliencePolicy
from repro.hardware.devices import build_device
from repro.interference.corunner import no_corunner
from repro.wireless.signal import ConstantSignal, OutageSignal


def outage_scenario(period_ms=100_000.0, outage_ms=50_000.0):
    return Scenario(
        name="outage",
        description="periodic Wi-Fi dead windows",
        corunner=no_corunner(),
        wlan_signal=OutageSignal(base=ConstantSignal(-55.0),
                                 period_ms=period_ms,
                                 outage_ms=outage_ms),
        p2p_signal=ConstantSignal(-55.0),
        dynamic=True,
    )


class TestOutageSignal:
    def test_windows(self):
        signal = OutageSignal(period_ms=100.0, outage_ms=25.0)
        rng = make_rng(0)
        assert signal.sample(rng, 10.0) == -100.0
        assert signal.sample(rng, 30.0) == pytest.approx(-55.0)
        assert signal.sample(rng, 110.0) == -100.0  # wraps

    def test_in_outage_predicate(self):
        signal = OutageSignal(period_ms=100.0, outage_ms=25.0)
        assert signal.in_outage(0.0)
        assert not signal.in_outage(25.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            OutageSignal(period_ms=0.0)
        with pytest.raises(ConfigError):
            OutageSignal(period_ms=100.0, outage_ms=100.0)


class TestSubstrateUnderOutage:
    def test_cloud_becomes_catastrophic_not_impossible(self, zoo):
        """The simulator degrades gracefully: an offload during an outage
        completes, but at an absurd latency/energy that any scheduler
        will learn to avoid."""
        env = EdgeCloudEnvironment(build_device("mi8pro"),
                                   scenario=outage_scenario(), seed=0)
        case = use_case_for(zoo["resnet_50"])
        cloud = next(t for t in env.targets()
                     if t.key == "cloud/gpu/fp32")
        observation = env.observe()  # clock at 0 -> inside the outage
        assert observation.rssi_wlan_dbm == -100.0
        result = env.execute(case.network, cloud, observation)
        assert result.latency_ms > 10 * case.qos_ms


class TestSchedulerAdaptation:
    def test_engine_leaves_cloud_during_outage(self, zoo):
        """Train at strong signal (cloud optimal for ResNet-50); the
        outage state is a *different* Table-I state, so the engine
        learns an on-device/connected policy for it without forgetting
        the strong-signal policy."""
        env = EdgeCloudEnvironment(build_device("mi8pro"),
                                   scenario=outage_scenario(), seed=1)
        engine = AutoScale(env, seed=1)
        case = use_case_for(zoo["resnet_50"])
        engine.run(case, 250)  # spans several outage cycles
        engine.freeze()

        from repro.env.observation import Observation
        outage_obs = Observation(rssi_wlan_dbm=-100.0)
        strong_obs = Observation(rssi_wlan_dbm=-55.0)
        outage_pick = engine.predict(case.network, outage_obs)
        strong_pick = engine.predict(case.network, strong_obs)
        assert outage_pick.location.value != "cloud"
        assert strong_pick.location.value == "cloud"

    def test_p2p_survives_wlan_outage(self, zoo):
        """Wi-Fi Direct is a separate radio: the connected edge device
        remains reachable through a WLAN outage (the Fig. 6 S4 logic,
        taken to the extreme)."""
        env = EdgeCloudEnvironment(build_device("moto_x_force"),
                                   scenario=outage_scenario(), seed=2)
        case = use_case_for(zoo["inception_v1"])
        from repro.baselines.oracle import OptOracle
        from repro.env.observation import Observation
        target = OptOracle().select(
            env, case, Observation(rssi_wlan_dbm=-100.0)
        )
        assert target.location.value == "connected"


# ----------------------------------------------------------------------
# Chaos regressions: the repro.faults request-level machinery
# ----------------------------------------------------------------------


def _service(seed, faults=None, resilience=None, action_space=None):
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                               seed=seed, faults=faults)
    engine = AutoScale(env, seed=seed, action_space=action_space)
    return AutoScaleService(env, engine=engine, resilience=resilience)


def _remote_only_space(env):
    return ActionSpace([t for t in env.targets() if t.is_remote])


class TestDefaultPathParity:
    def test_disabled_machinery_is_bit_identical(self, zoo):
        """``FaultPlan.none()`` + ``ResiliencePolicy.disabled()`` must
        reproduce the plain serving path bit-for-bit: same RNG stream,
        same decisions, same measurements, same learned table."""
        case = use_case_for(zoo["resnet_50"])
        plain = _service(31)
        explicit = _service(31, faults=FaultPlan.none(),
                            resilience=ResiliencePolicy.disabled())
        plain.register(case)
        explicit.register(case)
        for _ in range(60):
            a = plain.handle(case.name)
            b = explicit.handle(case.name)
            assert (a.latency_ms, a.energy_mj, a.estimated_energy_mj,
                    a.target_key) \
                == (b.latency_ms, b.energy_mj, b.estimated_energy_mj,
                    b.target_key)
        assert (plain.engine.qtable.values
                == explicit.engine.qtable.values).all()

    def test_no_mask_exploration_is_unchanged(self, zoo):
        """``select_action(allowed=None)`` must draw exactly as before —
        one integer over the full space — so trained behaviour and
        exploration streams are unaffected by the masking feature."""
        case = use_case_for(zoo["resnet_50"])
        env = EdgeCloudEnvironment(build_device("mi8pro"), seed=5)
        engine = AutoScale(env, seed=5)
        twin_rng = make_rng(5)
        # Replay the table-initialization draw the engine's rng made.
        twin_rng.uniform(engine.config.init_low, engine.config.init_high,
                         size=engine.qtable.values.shape)
        state = engine.observe_state(case.network, env.observe())
        for _ in range(50):
            action, explored = engine.select_action(state)
            if twin_rng.random() < engine.config.epsilon:
                assert explored
                assert action == int(twin_rng.integers(
                    len(engine.action_space)))
            else:
                assert not explored


class TestResilientServing:
    def test_retry_then_succeed(self, zoo):
        """Under a 50% abort rate a remote-only service recovers within
        its retry budget: some requests succeed only after retries."""
        case = use_case_for(zoo["resnet_50"])
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=17, faults=FaultPlan(abort_prob=0.5))
        engine = AutoScale(env, seed=17,
                           action_space=_remote_only_space(env))
        service = AutoScaleService(env, engine=engine, seed=17,
                                   resilience=ResiliencePolicy(
                                       max_retries=4))
        service.register(case)
        for _ in range(40):
            result = service.handle(case.name)
            assert not result.failed
        retried_ok = [r for r in service.trace.records
                      if r.status == "ok" and r.retries > 0]
        assert retried_ok, "no request recovered via retry"

    def test_exhausted_retries_degrade_to_local(self, zoo):
        """With every remote attempt aborted, the resilient service
        still delivers every request — from a local target that meets
        the accuracy constraint."""
        case = use_case_for(zoo["resnet_50"])
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=23, faults=FaultPlan(abort_prob=1.0))
        engine = AutoScale(env, seed=23,
                           action_space=_remote_only_space(env))
        service = AutoScaleService(env, engine=engine, seed=23,
                                   resilience=ResiliencePolicy(
                                       max_retries=1))
        service.register(case)
        for _ in range(15):
            result = service.handle(case.name)
            assert not result.failed
            assert result.target_key.startswith("local/")
            assert case.meets_accuracy(result.accuracy_pct)
        summary = service.trace.summary()
        assert summary["availability_pct"] == 100.0
        assert summary["degraded_pct"] == 100.0
        assert all(r.retries == 1 for r in service.trace.records)

    def test_naive_service_surfaces_failures(self, zoo):
        case = use_case_for(zoo["resnet_50"])
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=23, faults=FaultPlan(abort_prob=1.0))
        engine = AutoScale(env, seed=23,
                           action_space=_remote_only_space(env))
        service = AutoScaleService(env, engine=engine, seed=23)
        service.register(case)
        failures = sum(service.handle(case.name).failed
                       for _ in range(15))
        assert failures == 15
        assert service.trace.summary()["availability_pct"] == 0.0


class TestBreakerIntegration:
    def _run(self, zoo, seed):
        case = use_case_for(zoo["resnet_50"])
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=seed,
                                   faults=FaultPlan(abort_prob=1.0))
        engine = AutoScale(env, seed=seed,
                           action_space=_remote_only_space(env))
        service = AutoScaleService(env, engine=engine, seed=seed,
                                   resilience=ResiliencePolicy(
                                       max_retries=2))
        service.register(case)
        for _ in range(30):
            service.handle(case.name)
        return service

    def test_breakers_open_under_sustained_failure(self, zoo):
        service = self._run(zoo, seed=41)
        states = service.breaker_states()
        assert states, "no breakers were created"
        assert any(state in ("open", "half_open")
                   for state in states.values())
        assert all(b.times_opened >= 1
                   for b in service._breakers.values())

    def test_breaker_evolution_is_deterministic(self, zoo):
        first = self._run(zoo, seed=41)
        second = self._run(zoo, seed=41)
        assert first.breaker_states() == second.breaker_states()
        assert first.trace.summary() == second.trace.summary()

    def test_open_breakers_mask_selection(self, zoo):
        service = self._run(zoo, seed=41)
        allowed = service.action_mask()
        if allowed is None:
            pytest.skip("no breaker open at snapshot time")
        space = service.engine.action_space
        for index in range(len(space)):
            if not allowed[index]:
                key = space.target(index).key
                assert service.breaker_states()[key] == "open"


class TestEnergyConservation:
    def test_resilient_ledger_matches_trace(self, zoo):
        """Every millijoule the injector bills to dead attempts shows up
        in the trace's failed-energy accounting (resilient path)."""
        case = use_case_for(zoo["resnet_50"])
        env = EdgeCloudEnvironment(
            build_device("mi8pro"), scenario="S1", seed=29,
            faults=FaultPlan(abort_prob=0.4, loss_scale=1.0,
                             outages=(OutageWindow(
                                 "cloud", start_ms=2_000.0,
                                 duration_ms=2_000.0,
                                 period_ms=8_000.0),)),
        )
        engine = AutoScale(env, seed=29,
                           action_space=_remote_only_space(env))
        service = AutoScaleService(env, engine=engine, seed=29,
                                   resilience=ResiliencePolicy(
                                       max_retries=3))
        service.register(case)
        for _ in range(50):
            service.handle(case.name)
        traced_mj = sum(r.failed_energy_mj for r in service.trace.records)
        traced_mj += sum(r.energy_mj for r in service.trace.records
                         if r.status == "failed")
        assert env.fault_stats.billed_energy_mj \
            == pytest.approx(traced_mj)
        assert service.trace.summary()["failed_energy_mj"] \
            == pytest.approx(traced_mj)

    def test_naive_ledger_matches_trace(self, zoo):
        case = use_case_for(zoo["resnet_50"])
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=29,
                                   faults=FaultPlan(abort_prob=0.4))
        engine = AutoScale(env, seed=29,
                           action_space=_remote_only_space(env))
        service = AutoScaleService(env, engine=engine, seed=29)
        service.register(case)
        for _ in range(50):
            service.handle(case.name)
        traced_mj = sum(r.energy_mj for r in service.trace.records
                        if r.status == "failed")
        assert env.fault_stats.billed_energy_mj \
            == pytest.approx(traced_mj)

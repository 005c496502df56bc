"""Tests for the serving pipeline: parity, shedding, brownout, accounting.

The two parity properties here are the load-bearing ones:

- ``ServingConfig.disabled()`` reproduces the direct ``handle`` path
  bit-for-bit (same measurements, same learned table);
- the enabled pipeline under zero overload is *also* bit-identical,
  because the shedder and brownout controller draw no RNG and a
  batch of one coalesces to the scalar path.
"""

import pytest

from repro.common import make_rng
from repro.core.service import AutoScaleService
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import UseCase, use_case_for
from repro.hardware.devices import build_device
from repro.serving.arrivals import Arrival, PoissonArrivals, TraceArrivals
from repro.serving.brownout import BrownoutConfig
from repro.serving.pipeline import ServingConfig, ServingPipeline
from repro.serving.shedder import DeadlinePolicy


def _service(seed, think_time_ms=0.0, scenario="S1"):
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario=scenario,
                               seed=seed, think_time_ms=think_time_ms)
    return AutoScaleService(env, seed=seed)


def _measurements(outcome):
    return (outcome.latency_ms, outcome.energy_mj,
            outcome.estimated_energy_mj, outcome.target_key)


class TestConfig:
    def test_presets(self):
        assert not ServingConfig.disabled().enabled
        fifo = ServingConfig.fifo()
        assert fifo.queue_capacity is None
        assert not fifo.shedding
        assert not fifo.brownout.enabled
        assert not ServingConfig.shed_only().brownout.enabled

    def test_engine_must_use_the_environments_action_space(self):
        from repro.common import ConfigError
        from repro.core.engine import AutoScale
        from repro.env.target import ActionSpace
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=0)
        remote_only = ActionSpace(
            [target for target in env.targets() if target.is_remote])
        service = AutoScaleService(
            env, engine=AutoScale(env, seed=0, action_space=remote_only))
        with pytest.raises(ConfigError):
            ServingPipeline(service, ServingConfig())
        # An equal space built apart from the environment's is accepted.
        equal = ActionSpace(env.targets())
        ServingPipeline(AutoScaleService(
            env, engine=AutoScale(env, seed=0, action_space=equal)))

    def test_batch_max_validated(self):
        from repro.common import ConfigError
        with pytest.raises(ConfigError):
            ServingConfig(batch_max=0)


class TestDisabledBitIdentity:
    def test_disabled_pipeline_matches_direct_handle(self, zoo):
        """Acceptance: over a seeded 300-request workload the disabled
        pipeline must be indistinguishable from advancing the clock and
        calling ``handle`` directly — measurements and learned table."""
        case = use_case_for(zoo["resnet_50"])
        arrivals = PoissonArrivals(case.name, arrivals_per_s=5.0) \
            .generate(60_000.0, make_rng(11))
        assert len(arrivals) >= 250

        piped = _service(31)
        piped.register(case)
        outcomes = piped.serve(arrivals, ServingConfig.disabled())

        direct = _service(31)
        direct.register(case)
        env = direct.environment
        references = []
        for arrival in arrivals:
            if env.clock.now_ms < arrival.at_ms:
                env.clock.advance(arrival.at_ms - env.clock.now_ms)
            references.append(direct.handle(case.name))

        assert len(outcomes) == len(arrivals)
        for served, reference in zip(outcomes, references):
            assert _measurements(served.outcome) \
                == _measurements(reference)
        assert (piped.engine.qtable.values
                == direct.engine.qtable.values).all()

    def test_disabled_pipeline_keeps_closed_loop_think_time(self, zoo):
        """The disabled path must not silently change the environment's
        clock behaviour — think time stays whatever the env was built
        with."""
        case = use_case_for(zoo["mobilenet_v3"])
        service = _service(7, think_time_ms=150.0)
        service.register(case)
        service.serve([Arrival(0.0, case.name)], ServingConfig.disabled())
        # One request: latency + the 150 ms think time.
        record = service.trace.records[-1]
        assert service.environment.clock.now_ms \
            == pytest.approx(record.latency_ms + 150.0)


class TestZeroOverloadBitIdentity:
    def test_enabled_pipeline_is_bit_identical_when_unstressed(self, zoo):
        """Acceptance: with arrivals so sparse every batch has size one
        and nothing sheds or browns out, the *full* pipeline reproduces
        the direct path bit-for-bit — the machinery is provably inert
        until overload actually happens."""
        case = use_case_for(zoo["resnet_50"])
        arrivals = [Arrival(20_000.0 * index, case.name)
                    for index in range(40)]

        piped = _service(13)
        piped.register(case)
        pipeline = ServingPipeline(piped, ServingConfig())
        outcomes = pipeline.serve(arrivals)

        direct = _service(13)
        direct.register(case)
        env = direct.environment
        references = []
        for arrival in arrivals:
            if env.clock.now_ms < arrival.at_ms:
                env.clock.advance(arrival.at_ms - env.clock.now_ms)
            references.append(direct.handle(case.name))

        assert pipeline.shed_stats.total_sheds == 0
        assert pipeline.status()["brownout_escalations"] == 0
        for served, reference in zip(outcomes, references):
            assert served.delivered
            assert _measurements(served.outcome) \
                == _measurements(reference)
        assert (piped.engine.qtable.values
                == direct.engine.qtable.values).all()


class TestCoalescingParity:
    def test_one_selection_per_group_matches_per_request(self, zoo):
        """Acceptance: coalesced batch decisions must equal what
        per-request selection would have chosen.  With a frozen engine
        selection is deterministic, so the ten requests of one drain
        cycle must all get the single group decision — and that decision
        must match a twin engine selecting once per request."""
        case = use_case_for(zoo["resnet_50"])
        arrivals = [Arrival(0.0, case.name) for _ in range(10)]

        piped = _service(19)
        piped.set_learning(False)
        piped.register(case)
        selections = []
        inner = piped.engine.select_action

        def counting(state, explore=None, allowed=None):
            decision = inner(state, explore=explore, allowed=allowed)
            selections.append(decision)
            return decision

        piped.engine.select_action = counting
        config = ServingConfig(queue_capacity=None, shedding=False,
                               brownout=BrownoutConfig.disabled())
        outcomes = ServingPipeline(piped, config).serve(arrivals)

        # Coalescing: ten requests, one Q-table read — exactly one
        # group decision was made.
        assert len(selections) == 1
        assert len(outcomes) == 10

        twin = _service(19)
        twin.set_learning(False)
        twin.register(case)
        twin_env = twin.environment
        observation = twin_env.observe()
        state = twin.engine.observe_state(case.network, observation)
        per_request = [twin.engine.select_action(state)
                       for _ in range(10)]
        expected_key = twin.engine.action_space \
            .target(per_request[0][0]).key
        assert all(decision == per_request[0]
                   for decision in per_request)
        assert all(served.outcome.target_key == expected_key
                   for served in outcomes)


class TestShedding:
    def test_queue_full_backpressure_sheds_deterministically(self, zoo):
        case = use_case_for(zoo["mobilenet_v3"])
        service = _service(5)
        service.register(case)
        config = ServingConfig(queue_capacity=1,
                               brownout=BrownoutConfig.disabled())
        pipeline = ServingPipeline(service, config)
        outcomes = pipeline.serve([Arrival(0.0, case.name)
                                   for _ in range(3)])
        sheds = [o for o in outcomes if o.shed]
        assert len(sheds) == 2
        assert all(o.outcome.reason.value == "queue_full" for o in sheds)
        assert pipeline.queue.rejected == 2

    def test_infeasible_work_is_shed_before_spending_energy(self, zoo):
        """A QoS budget below the fastest nominal latency is provably
        unservable; the shedder must refuse it at zero energy."""
        case = UseCase(name="impossible", network=zoo["mobilenet_v3"],
                       qos_ms=0.01)
        service = _service(5)
        service.register(case)
        pipeline = ServingPipeline(service, ServingConfig())
        outcomes = pipeline.serve([Arrival(0.0, case.name)])
        assert outcomes[0].shed
        assert outcomes[0].outcome.reason.value == "infeasible"
        assert service.trace.records[-1].status == "shed"
        assert service.trace.records[-1].energy_mj == 0.0

    def test_overload_burst_partitions_offered_requests(self, zoo):
        """Under a hopeless burst every offered request is exactly one
        of served/shed, sheds bill zero energy, and expired deadlines
        surface as their own reason."""
        case = use_case_for(zoo["mobilenet_v3"])
        service = _service(5)
        service.register(case)
        pipeline = ServingPipeline(service, ServingConfig(
            brownout=BrownoutConfig.disabled()))
        burst = TraceArrivals(tuple((0.0, case.name)
                                    for _ in range(60)))
        outcomes = pipeline.serve(burst.generate(1_000.0))
        stats = pipeline.shed_stats
        assert stats.offered == 60
        assert stats.served + stats.total_sheds == 60
        assert stats.sheds.get("expired", 0) > 0
        assert stats.billed_energy_mj == 0.0
        assert len(outcomes) == 60
        shed_records = [r for r in service.trace.records
                        if r.status == "shed"]
        assert len(shed_records) == stats.total_sheds
        assert all(r.energy_mj == 0.0 for r in shed_records)


def drain_one_request(zoo, deadline_offset_ms):
    """Queue one mobilenet_v3 request whose deadline sits at
    ``now + offset`` and run a single drain cycle; returns the pipeline
    and the request's outcome."""
    from repro.serving.queue import QueuedRequest

    case = use_case_for(zoo["mobilenet_v3"])
    service = _service(5)
    service.register(case)
    pipeline = ServingPipeline(service, ServingConfig(
        brownout=BrownoutConfig.disabled()))
    env = service.environment
    env.advance_clock(500.0)  # a nonzero 'now' so negatives exist
    now_ms = env.clock.now_ms
    request = QueuedRequest(
        Arrival(0.0, case.name), case,
        deadline_ms=now_ms + deadline_offset_ms,
    )
    pipeline.queue.admit(request)
    outcomes = []
    pipeline._drain_cycle(outcomes)
    return pipeline, outcomes[0]


def drain_floor_ms(zoo):
    """The exact floor `drain_one_request`'s drain will compute: a twin
    environment replaying the same seed, clock advance, and first
    observation draw."""
    from repro.serving.shedder import min_feasible_latency_ms

    case = use_case_for(zoo["mobilenet_v3"])
    service = _service(5)
    env = service.environment
    env.advance_clock(500.0)
    sweep = env.estimate_all(case.network, env.observe())
    return min_feasible_latency_ms(sweep)


class TestDeadlineBoundary:
    """The deadline is inclusive, and both shed checks agree on it.

    These pin the convention documented on ``DeadlinePolicy``: at
    ``remaining == 0`` the deadline is not yet blown (EXPIRED needs a
    strictly negative budget), and a feasibility floor landing exactly
    on the deadline is kept (INFEASIBLE needs a strict overshoot).
    """

    def _drain_one(self, zoo, deadline_offset_ms):
        return drain_one_request(zoo, deadline_offset_ms)[1]

    def _floor_ms(self, zoo):
        return drain_floor_ms(zoo)

    def test_remaining_zero_is_not_expired(self, zoo):
        """At exactly the deadline the budget is spent but not blown:
        the request is refused for infeasibility (no positive service
        floor fits a zero budget), never mislabelled EXPIRED."""
        outcome = self._drain_one(zoo, deadline_offset_ms=0.0)
        assert outcome.shed
        assert outcome.outcome.reason.value == "infeasible"

    def test_remaining_barely_negative_is_expired(self, zoo):
        outcome = self._drain_one(zoo, deadline_offset_ms=-1e-6)
        assert outcome.shed
        assert outcome.outcome.reason.value == "expired"

    def test_floor_equal_to_remaining_is_kept(self, zoo):
        """A fastest-target estimate landing exactly on the (inclusive)
        deadline must be served, not shed."""
        floor_ms = self._floor_ms(zoo)
        outcome = self._drain_one(zoo, deadline_offset_ms=floor_ms)
        assert outcome.delivered

    def test_floor_past_remaining_is_infeasible(self, zoo):
        floor_ms = self._floor_ms(zoo)
        outcome = self._drain_one(zoo,
                                  deadline_offset_ms=floor_ms * 0.999)
        assert outcome.shed
        assert outcome.outcome.reason.value == "infeasible"


class TestResilientTraceStamping:
    """The resilient path's queueing columns survive the rolling window.

    Regression for the ``records[-1]`` re-stamp: with a tiny
    ``trace_limit`` the tail of the buffer is not reliably the resilient
    request's own record, so the columns must be written at record
    construction (threaded through ``_handle_resilient``), never patched
    onto whatever happens to sit at the tail.
    """

    def test_queue_columns_land_on_the_resilient_record(self, zoo):
        from repro.faults import ResiliencePolicy

        case = use_case_for(zoo["mobilenet_v3"])
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=3, think_time_ms=0.0)
        service = AutoScaleService(env, seed=3, trace_limit=4,
                                   resilience=ResiliencePolicy())
        service.register(case)
        arrivals = [Arrival(float(index), case.name)
                    for index in range(12)]
        outcomes = ServingPipeline(service, ServingConfig()).serve(
            arrivals)
        assert len(outcomes) == 12
        # Every surviving record is internally consistent: a served
        # record's queue delay matches its outcome's, and the rolling
        # window never produced a mis-stamped neighbour.
        served = {id(o.outcome): o for o in outcomes if o.delivered}
        assert served, "expected delivered requests"
        for record in service.trace.records:
            if record.status == "shed":
                continue
            assert record.queue_delay_ms >= 0.0

    def test_resilient_single_request_columns_exact(self, zoo):
        from repro.faults import ResiliencePolicy

        case = use_case_for(zoo["mobilenet_v3"])
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=3, think_time_ms=0.0)
        service = AutoScaleService(env, seed=3, trace_limit=1,
                                   resilience=ResiliencePolicy())
        service.register(case)
        # trace_limit=1: the buffer holds at most one record, the
        # degenerate case where tail-patching is most fragile.
        outcomes = ServingPipeline(service, ServingConfig()).serve(
            [Arrival(0.0, case.name)])
        assert len(outcomes) == 1
        assert len(service.trace.records) == 1
        record = service.trace.records[-1]
        assert record.queue_delay_ms == outcomes[0].queue_delay_ms
        assert record.tier == outcomes[0].tier


class TestStaleFeasibilityRefresh:
    """The INFEASIBLE floor is judged against current conditions.

    Regression for the stale drain-start sweep: once earlier requests in
    a batch have advanced the clock, the feasibility check must sample a
    fresh observation instead of reusing load/RSSI from a point that no
    longer exists — while a batch of one (the pinned zero-overload path)
    never re-observes.  Under a static scenario a fresh observation
    would equal the old one, so there the engine's carry and the
    drain's floor memo elide the re-observe and the re-sweep
    altogether.
    """

    def test_batch_of_one_never_reobserves(self, zoo):
        """Under zero overload the refresh must be provably inert.
        Under a dynamic scenario the enabled pipeline draws exactly as
        many observations as the direct path (drain sample + the
        engine's Q-update next-state sample per request), none for
        feasibility.  Under S1 both paths observe once, at the first
        request: the engine carries that sample as every later start
        and successor observation."""
        case = use_case_for(zoo["mobilenet_v3"])
        arrivals = [Arrival(0.0, case.name),
                    Arrival(50_000.0, case.name)]

        def count_observes(service, config):
            counted = []
            inner = service.environment.observe

            def counting():
                observation = inner()
                counted.append(observation.now_ms)
                return observation

            service.environment.observe = counting
            ServingPipeline(service, config).serve(arrivals)
            return counted

        def both(scenario):
            piped = _service(5, scenario=scenario)
            piped.register(case)
            direct = _service(5, scenario=scenario)
            direct.register(case)
            return (count_observes(piped, ServingConfig()),
                    count_observes(direct, ServingConfig.disabled()))

        piped, direct = both("D2")
        assert piped == direct
        piped, direct = both("S1")
        assert piped == direct == [0.0]

    def test_late_batch_requests_use_fresh_observations(self, zoo):
        """Under a dynamic scenario the drain must re-observe once the
        clock moves: a stale sample would hide load/RSSI changes."""
        case = use_case_for(zoo["mobilenet_v3"])
        service = _service(5, scenario="D2")
        service.register(case)
        env = service.environment
        feasibility_times = []
        inner_estimate_all = env.estimate_all

        def tracking(network, observation):
            feasibility_times.append(observation.now_ms)
            return inner_estimate_all(network, observation)

        env.estimate_all = tracking
        pipeline = ServingPipeline(service, ServingConfig(
            deadline=DeadlinePolicy(qos_factor=20.0),
            brownout=BrownoutConfig.disabled()))
        pipeline.serve([Arrival(0.0, case.name) for _ in range(6)])
        # The first check uses the drain-start sample; once the clock
        # has moved, later checks must not reuse its timestamp.
        assert feasibility_times[0] == 0.0
        later = [t for t in feasibility_times[1:] if t > 0.0]
        assert later, "late-batch feasibility checks never refreshed"

    def test_drain_sweeps_once_per_network(self, zoo):
        """Under S1 one ``serve`` computes one feasibility sweep per
        network, at that network's first drain, however many drains
        follow — while shedding exactly what the request-at-a-time
        reference sheds.  A second ``serve`` starts a fresh floor memo
        but keeps the engine's observation carry, so its sweeps read
        the observation the first serve took at 0 ms."""
        from tests.serving.test_drain_parity import (
            ScalarReferencePipeline,
        )

        cases = [use_case_for(zoo["mobilenet_v3"]),
                 use_case_for(zoo["resnet_50"])]
        # Four bursts far apart: at least four drains, each mixing both
        # networks.
        arrivals = [Arrival(20_000.0 * burst, cases[index % 2].name)
                    for burst in range(4) for index in range(6)]
        later = [Arrival(100_000.0 + arrival.at_ms, arrival.name)
                 for arrival in arrivals]

        def serve(pipeline_class, *streams):
            service = _service(5)
            for case in cases:
                service.register(case)
            env = service.environment
            sweeps = []
            inner_estimate_all = env.estimate_all

            def tracking(network, observation):
                sweeps.append((network.name, observation.now_ms))
                return inner_estimate_all(network, observation)

            env.estimate_all = tracking
            pipeline = pipeline_class(service, ServingConfig(
                deadline=DeadlinePolicy(qos_factor=20.0),
                brownout=BrownoutConfig.disabled()))
            outcomes = []
            for stream in streams:
                outcomes += pipeline.serve(stream)
            return outcomes, sweeps

        names = [case.network.name for case in cases]
        outcomes, sweeps = serve(ServingPipeline, arrivals, later)
        assert sweeps == [(names[0], 0.0), (names[1], 0.0),
                          (names[0], 0.0), (names[1], 0.0)]
        reference, reference_sweeps = serve(ScalarReferencePipeline,
                                            arrivals, later)
        assert len(reference_sweeps) > len(sweeps)
        assert [type(o.outcome).__name__ for o in outcomes] \
            == [type(o.outcome).__name__ for o in reference]


class TestBrownout:
    def test_sustained_pressure_escalates_and_stamps_tiers(self, zoo):
        case = use_case_for(zoo["mobilenet_v3"])
        service = _service(5)
        service.register(case)
        pipeline = ServingPipeline(service, ServingConfig(
            deadline=DeadlinePolicy(qos_factor=50.0)))
        pipeline.serve([Arrival(0.0, case.name) for _ in range(30)])
        status = pipeline.status()
        assert status["brownout_escalations"] >= 1
        tiers = {r.tier for r in service.trace.records}
        assert tiers - {"normal"}, "no record served under a brownout tier"


class TestStatus:
    def test_snapshot_keys(self, zoo):
        case = use_case_for(zoo["mobilenet_v3"])
        service = _service(5)
        service.register(case)
        pipeline = ServingPipeline(service, ServingConfig())
        pipeline.serve([Arrival(0.0, case.name)])
        status = pipeline.status()
        for key in ("queue_depth", "queue_peak_depth", "queue_admitted",
                    "queue_rejected", "brownout_tier",
                    "brownout_escalations", "brownout_deescalations",
                    "sheds"):
            assert key in status
        assert status["queue_depth"] == 0

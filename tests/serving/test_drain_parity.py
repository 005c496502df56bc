"""Bit-parity of the serving drain against a request-at-a-time oracle.

The pipeline has one drain.  What separates it from plain per-request
serving is the engine's observation carry (``AutoScale.observe`` and
``AutoScale.state_of``) and the pipeline's per-network feasibility-floor
memo (``ServingPipeline._memos``).  The acceptance property: every
observable — outcome measurements, trace rows, Q-table bytes, visit
counts, both RNG streams' bit-generator states, the virtual clock, and
the shed ledger — is byte-equal to :class:`ScalarReferencePipeline`, a
test-local copy of the drain that observes through ``env.observe()``,
encodes and sweeps per request with no memo of its own.

:class:`EventReplayPipeline` is the second oracle: the reference drain
fed by the event-heap arrival replay the pipeline used before it read
the sorted stream from a cursor (one kernel event per arrival, buffered
until the loop top).  It pins admission instants and order, arrivals
tied with kernel events and behind the clock included, and the frozen
decision memo against a drain that decides afresh every time.

The cases cover training and frozen selection, brownout, multi-network
batches, mid-batch expiry, a dynamic scenario, the resilient retry path
under a fault plan, a live guard, and kernel ``TIMER`` scenario swaps
that land inside a drain.  The carry's predicate (scenario identity)
and the floor memo's tag (carried observation, mask bytes, network
identity) are pinned directly as well, and so is
the use-case-keyed coalescing regression (two use cases sharing a
(network, state) bucket under brownout).
"""

import dataclasses
from collections import deque

import numpy as np
import pytest

import repro.serving.pipeline as pipeline_module
from repro.core.service import AutoScaleService
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import UseCase, use_case_for
from repro.env.scenarios import build_scenario
from repro.env.target import combine_masks
from repro.faults.breaker import BreakerConfig, CircuitBreaker
from repro.faults.plan import FaultPlan, OutageWindow
from repro.faults.resilience import ResiliencePolicy
from repro.guard import GuardConfig, GuardStage, PolicyGuard
from repro.hardware.devices import build_device
from repro.models.quantization import Precision
from repro.serving.arrivals import Arrival, PoissonArrivals
from repro.serving.brownout import BrownoutConfig, BrownoutTier
from repro.serving.pipeline import (
    ServedRequest,
    ServingConfig,
    ServingPipeline,
)
from repro.serving.shedder import (
    DeadlinePolicy,
    ShedReason,
    min_feasible_latency_ms,
)
from repro.sim.events import EventKind


class ScalarReferencePipeline(ServingPipeline):
    """The request-at-a-time reference drain: per-request observation
    refresh, encode and feasibility sweep, no memo."""

    def _drain_cycle(self, outcomes):
        """The reference drain: per-request observation refresh and
        feasibility sweeps.  Correct under every configuration."""
        service = self.service
        env = service.environment
        engine = service.engine
        tier = self.brownout.observe_pressure(self.queue.depth)
        batch = self.queue.take_batch(self.config.batch_max)
        observation = env.observe()
        mask = combine_masks(service.action_mask(),
                             self.brownout.mask(env.action_space))
        browned = self.brownout.tier is not BrownoutTier.NORMAL
        # One selection per (network, state) group; execution, reward,
        # and Q update stay per-request via step_with_action.
        decisions = {}
        # The feasibility floor must be judged against *current*
        # conditions: earlier requests in the batch advance the clock,
        # so the drain-start observation's load/RSSI go stale.  Track
        # the freshest sample and re-observe only when time has moved —
        # a batch of one (the pinned zero-overload path) never
        # re-observes, so that path stays bit-identical.
        feasibility_obs = observation
        for request in batch:
            now_ms = env.clock.now_ms
            use_case = request.use_case
            if self.config.shedding:
                if request.remaining_ms(now_ms) < 0:
                    self._shed(request, ShedReason.EXPIRED, now_ms,
                               outcomes)
                    continue
                if feasibility_obs.now_ms != now_ms:
                    feasibility_obs = env.observe()
                sweep = env.estimate_all(use_case.network,
                                         feasibility_obs)
                floor_ms = min_feasible_latency_ms(sweep, mask)
                if now_ms + floor_ms > request.deadline_ms:
                    self._shed(request, ShedReason.INFEASIBLE, now_ms,
                               outcomes)
                    continue
            wait_ms = request.queue_delay_ms(now_ms)
            guard = self.guard
            shadowing = (guard.enabled
                         and guard.stage.depth >= GuardStage.SHADOW.depth)
            if service.resilience.enabled:
                outcome = self._serve_resilient(use_case, wait_ms, tier)
                if guard.enabled:
                    if outcome.failed:
                        guard.note_refusal()
                    else:
                        guard.note_qos(wait_ms + outcome.latency_ms
                                       <= use_case.qos_ms)
            else:
                state = engine.observe_state(use_case.network, observation)
                key = self._decision_key(use_case, state, shadowing,
                                         browned)
                if key not in decisions:
                    if shadowing:
                        # SHADOW/DEGRADE: the nominal-argmin baseline
                        # decides (zero extra energy — the sweep is the
                        # cached cost model, not an execution); the Q
                        # update below still runs off-policy.
                        decisions[key] = (self._shadow_action(
                            use_case, observation, mask,
                            local_only=guard.stage is GuardStage.DEGRADE,
                        ), False)
                    elif browned:
                        decisions[key] = (self._brownout_action(
                            use_case, observation, mask), False)
                    else:
                        decisions[key] = engine.select_action(state,
                                                              allowed=mask)
                action, explored = decisions[key]
                step = engine.step_with_action(
                    use_case, action, observation, explored=explored,
                )
                service.trace.record_step(
                    step, use_case, at_ms=env.clock.now_ms,
                    queue_delay_ms=wait_ms, tier=tier.value,
                    reason=self._trace_reason(),
                )
                outcome = step.result
                if guard.enabled:
                    self._feed_guard(step, use_case, observation, wait_ms)
            self.shed_stats.note_served()
            outcomes.append(ServedRequest(
                request.arrival, outcome,
                queue_delay_ms=wait_ms, tier=tier.value,
            ))


class EventReplayPipeline(ScalarReferencePipeline):
    """The reference drain fed by event-heap arrival replay: every
    arrival is scheduled up front as a kernel event whose callback
    buffers it, and the loop admits the buffer at the top of each
    cycle."""

    def _serve_pipelined(self, ordered):
        env = self.service.environment
        kernel = env.kernel
        outcomes = []
        due = deque()
        pending_ms = deque()

        def deliver(event):
            pending_ms.popleft()
            due.append(event.payload)

        for arrival in ordered:
            kernel.schedule(arrival.at_ms, EventKind.TIMER,
                            payload=arrival, callback=deliver)
            pending_ms.append(arrival.at_ms)
        if self.guard.enabled:
            self._apply_guard_stage()
            self._guard_handle = kernel.schedule_in(
                self.guard.config.tick_interval_ms, EventKind.GUARD_TICK,
                callback=self._on_guard_tick,
            )
        try:
            while True:
                kernel.fire_due()
                now_ms = env.clock.now_ms
                while due:
                    self._admit(due.popleft(), now_ms, outcomes)
                if self.queue.depth == 0:
                    if not pending_ms:
                        return outcomes
                    env.advance_clock_to(pending_ms[0])
                    continue
                self._drain_cycle(outcomes)
        finally:
            if self._guard_handle is not None:
                self._guard_handle.cancel()
                self._guard_handle = None


def _service(seed, scenario="S1", faults=None, resilience=None,
             guard=None):
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario=scenario,
                               seed=seed, faults=faults)
    return AutoScaleService(env, seed=seed, resilience=resilience,
                            guard=guard)


def _outcome_signature(outcome):
    signature = (type(outcome).__name__, outcome.latency_ms,
                 outcome.energy_mj, outcome.target_key)
    if outcome.shed:
        signature += (outcome.reason.value, outcome.shed_at_ms,
                      outcome.deadline_ms, outcome.queue_delay_ms)
    return signature


def _swap_at(service, at_ms, scenario):
    """Schedule a kernel ``TIMER`` that installs ``scenario`` at
    ``at_ms`` — it fires wherever the clock crosses that instant,
    including in the middle of a drain."""
    env = service.environment

    def swap(event):
        env.scenario = scenario

    env.kernel.schedule(at_ms, EventKind.TIMER, payload="swap",
                        callback=swap)


def _run(pipeline_class, seed, cases, arrivals, config, learning=True,
         pretrain=0, service_options=None, setup=None):
    service = _service(seed, **(service_options or {}))
    for case in cases:
        service.register(case)
    if pretrain:
        for case in cases:
            service.engine.run(case, pretrain)
        service.environment.reset()
    if not learning:
        service.set_learning(False)
    if setup is not None:
        setup(service)
    pipeline = pipeline_class(service, ServingConfig(**config))
    outcomes = pipeline.serve(list(arrivals))
    return service, pipeline, outcomes


def _assert_bit_identical(fast, reference):
    service_a, pipeline_a, outcomes_a = fast
    service_b, pipeline_b, outcomes_b = reference
    assert len(outcomes_a) == len(outcomes_b)
    for a, b in zip(outcomes_a, outcomes_b):
        assert _outcome_signature(a.outcome) \
            == _outcome_signature(b.outcome)
        assert (a.queue_delay_ms, a.tier) == (b.queue_delay_ms, b.tier)
    assert list(service_a.trace.records) == list(service_b.trace.records)
    table_a, table_b = service_a.engine.qtable, service_b.engine.qtable
    assert table_a.values.tobytes() == table_b.values.tobytes()
    assert (table_a.visits == table_b.visits).all()
    assert table_a.update_count == table_b.update_count
    assert service_a.engine.rng.bit_generator.state \
        == service_b.engine.rng.bit_generator.state
    assert service_a.environment.rng.bit_generator.state \
        == service_b.environment.rng.bit_generator.state
    assert service_a.environment.clock.now_ms \
        == service_b.environment.clock.now_ms
    assert pipeline_a.shed_stats.as_dict() \
        == pipeline_b.shed_stats.as_dict()
    assert service_a.breaker_states() == service_b.breaker_states()
    assert pipeline_a.guard.status() == pipeline_b.guard.status()


def _parity(seed, cases_of, arrivals_of, config, learning=True,
            pretrain=0, service_options_of=None, setup=None,
            pipeline_class=ServingPipeline,
            oracle=ScalarReferencePipeline):
    """Run the drain and the oracle on twin services; both results are
    returned and asserted byte-equal."""
    runs = [
        _run(cls, seed, cases_of(), arrivals_of(), config,
             learning=learning, pretrain=pretrain,
             service_options=(service_options_of()
                              if service_options_of else None),
             setup=setup)
        for cls in (pipeline_class, oracle)
    ]
    _assert_bit_identical(runs[0], runs[1])
    return runs[0], runs[1]


class TestDrainParity:
    def test_training_overload_burst(self, zoo):
        """Training selects lazily per group; a hopeless burst mixes
        serves with EXPIRED and INFEASIBLE sheds mid-batch."""
        case = use_case_for(zoo["mobilenet_v3"])
        fast, _ = _parity(
            11,
            lambda: [case],
            lambda: [Arrival(0.0, case.name) for _ in range(60)],
            dict(brownout=BrownoutConfig.disabled()),
        )
        assert fast[1].shed_stats.total_sheds > 0

    def test_training_epsilon_explorations_replay_exactly(self, zoo):
        """A multi-drain stream with exploration on: every epsilon draw
        lands where the reference interleave puts it."""
        case = use_case_for(zoo["mobilenet_v3"])

        def arrivals():
            return PoissonArrivals(case.name, arrivals_per_s=5.0) \
                .generate(30_000.0, np.random.default_rng(3))

        _, reference = _parity(
            13,
            lambda: [case],
            arrivals,
            dict(queue_capacity=None,
                 deadline=DeadlinePolicy(qos_factor=50.0),
                 brownout=BrownoutConfig.disabled()),
        )
        assert any(record.explored
                   for record in reference[0].trace.records)

    def test_frozen_engine_decides_each_group_once(self, zoo):
        """Frozen serving of a 40-request drain: one selection for the
        whole coalescing group, byte-equal to the reference."""
        case = use_case_for(zoo["mobilenet_v3"])
        fast, _ = _parity(
            17,
            lambda: [case],
            lambda: [Arrival(0.0, case.name) for _ in range(40)],
            dict(queue_capacity=None,
                 deadline=DeadlinePolicy(qos_factor=200.0),
                 brownout=BrownoutConfig.disabled()),
            learning=False,
            pretrain=30,
        )
        # 30 pretraining selections, then one for the whole drain.
        assert fast[0].engine.overhead.select_us.count == 30 + 1

    def test_brownout_tiers_match(self, zoo):
        """Escalated tiers route through the nominal-cost selection in
        both drains."""
        case = use_case_for(zoo["mobilenet_v3"])
        _, reference = _parity(
            23,
            lambda: [case],
            lambda: [Arrival(0.0, case.name) for _ in range(30)],
            dict(queue_capacity=None,
                 deadline=DeadlinePolicy(qos_factor=100.0)),
        )
        assert reference[1].brownout.escalations >= 1

    def test_multi_network_batches(self, zoo):
        """Heterogeneous batches: three networks interleaved at the
        same instants — per-network floors, states, and coalescing
        groups all diverge inside one drain."""
        def cases():
            return [use_case_for(zoo["mobilenet_v3"]),
                    use_case_for(zoo["resnet_50"]),
                    use_case_for(zoo["mobilebert"])]

        def arrivals():
            names = [case.name for case in cases()]
            return [Arrival(200.0 * burst, names[index % 3])
                    for burst in range(6)
                    for index in range(9)]

        _parity(
            29,
            cases,
            arrivals,
            dict(queue_capacity=None,
                 deadline=DeadlinePolicy(qos_factor=30.0),
                 brownout=BrownoutConfig.disabled()),
        )

    def test_batch_max_one_stays_pinned(self, zoo):
        """The pinned zero-overload path: batch_max=1 must serve
        identically on both drains (and never shed under no load)."""
        case = use_case_for(zoo["mobilenet_v3"])
        fast, _ = _parity(
            31,
            lambda: [case],
            lambda: [Arrival(30_000.0 * index, case.name)
                     for index in range(10)],
            dict(batch_max=1),
        )
        assert fast[1].shed_stats.total_sheds == 0

    def test_dynamic_scenario_stream(self, zoo):
        """D2 (a browser co-runner): every observation draws RNG, so
        the floor is re-judged per request; the memo holds only the
        drain's states."""
        def cases():
            return [use_case_for(zoo["mobilenet_v3"]),
                    use_case_for(zoo["resnet_50"])]

        def arrivals():
            names = [case.name for case in cases()]
            return [Arrival(150.0 * burst, names[index % 2])
                    for burst in range(20)
                    for index in range(5)]

        _, reference = _parity(
            37,
            cases,
            arrivals,
            dict(deadline=DeadlinePolicy(qos_factor=20.0)),
            service_options_of=lambda: dict(scenario="D2"),
        )
        assert reference[1].shed_stats.total_sheds > 0

    def test_resilient_path_under_a_fault_plan(self, zoo):
        """Retries, breakers and a periodic cloud outage: the resilient
        branch uses memoized floors (static observations draw nothing,
        even between retries), and breaker trips change the mask the
        memo is tagged with."""
        case = use_case_for(zoo["mobilenet_v3"])

        def options():
            return dict(
                faults=FaultPlan(
                    loss_scale=1.0, abort_prob=0.2, straggler_prob=0.1,
                    outages=(OutageWindow("cloud", start_ms=2_000.0,
                                          duration_ms=3_000.0,
                                          period_ms=8_000.0),),
                ),
                resilience=ResiliencePolicy(),
            )

        def arrivals():
            return PoissonArrivals(case.name, arrivals_per_s=5.0) \
                .generate(30_000.0, np.random.default_rng(43))

        fast, _ = _parity(
            41,
            lambda: [case],
            arrivals,
            dict(deadline=DeadlinePolicy(qos_factor=20.0)),
            service_options_of=options,
        )
        assert fast[0].environment.fault_stats.total_failures > 0

    def test_guard_live_stream(self, zoo):
        """A live guard on the non-resilient path: ticks fire mid-drain
        and a drift to D4 gives its detectors something to see."""
        case = use_case_for(zoo["mobilenet_v3"])

        def arrivals():
            return PoissonArrivals(case.name, arrivals_per_s=30.0) \
                .generate(20_000.0, np.random.default_rng(47))

        fast, _ = _parity(
            43,
            lambda: [case],
            arrivals,
            dict(deadline=DeadlinePolicy(qos_factor=20.0)),
            pretrain=40,
            service_options_of=lambda: dict(
                guard=PolicyGuard(GuardConfig())),
            setup=lambda service: _swap_at(service, 6_000.0,
                                           build_scenario("D4")),
        )
        assert fast[1].guard.status()["escalations"] >= 1


class TestMidDrainScenarioSwap:
    """Regression: a kernel ``TIMER`` that swaps S1 -> D4 inside a
    drain of several requests.  From the swap on, observations draw RNG
    and floors must be re-judged per request against fresh samples; a
    floor memoized under S1 would skip those draws and shift every
    later random number."""

    @pytest.mark.parametrize("learning", [True, False],
                             ids=["training", "frozen"])
    @pytest.mark.parametrize("rate_per_s", [150.0, 400.0])
    @pytest.mark.parametrize("swap_ms", [250.0, 777.7, 1_234.5, 1_600.0])
    def test_swap_inside_dense_drains(self, zoo, learning, rate_per_s,
                                      swap_ms):
        case = use_case_for(zoo["mobilenet_v3"])

        def arrivals():
            return PoissonArrivals(case.name, arrivals_per_s=rate_per_s) \
                .generate(2_000.0, np.random.default_rng(53))

        # Deadlines loose enough that requests behind the swap reach the
        # feasibility check instead of expiring first.
        fast, _ = _parity(
            59,
            lambda: [case],
            arrivals,
            dict(queue_capacity=None,
                 deadline=DeadlinePolicy(qos_factor=100.0),
                 brownout=BrownoutConfig.disabled()),
            learning=learning,
            pretrain=30,
            setup=lambda service: _swap_at(service, swap_ms,
                                           build_scenario("D4")),
        )
        assert fast[0].environment.scenario.name == "D4"


class TestMemoPredicate:
    """The engine reuses an observation only while the static scenario
    object it was taken under stays installed; the floor memo is reused
    only while the drain observation, the combined mask bytes and the
    network object are all unchanged."""

    def test_tag_holds_only_for_same_static_scenario_and_mask(self):
        service = _service(61)
        env = service.environment
        engine = service.engine
        pipeline = ServingPipeline(service)

        def floors_for(mask):
            return pipeline._memos(engine.observe(), mask)[0]

        mask = np.ones(len(engine.action_space), dtype=bool)
        floors = floors_for(None)
        assert floors_for(None) is floors
        # A mask change (brownout tier, breaker trip) starts afresh.
        masked = floors_for(mask)
        assert masked is not floors
        assert floors_for(mask.copy()) is masked
        narrowed = mask.copy()
        narrowed[0] = False
        assert floors_for(narrowed) is not masked
        # So does a new scenario object, even an equal static one: the
        # engine stops carrying and observes afresh.
        current = floors_for(narrowed)
        carried = engine.observe()
        env.scenario = build_scenario("S1")
        assert not engine.carries(carried)
        assert floors_for(narrowed) is not current
        # A dynamic scenario is never carried, so its floors never
        # outlive the observation that tagged them.
        env.scenario = build_scenario("D2")
        first = floors_for(narrowed)
        assert not engine.carries(engine.observe())
        assert floors_for(narrowed) is not first

    def test_observation_is_reused_only_under_the_static_tag(self):
        service = _service(61)
        env = service.environment
        engine = service.engine
        observation = engine.observe()
        assert engine.carries(observation)
        # The carry outlives clock moves and rewinds: its timestamp is
        # when it was taken, not the clock.
        env.advance_clock_to(500.0)
        assert engine.observe() is observation
        env.rewind_clock()
        assert engine.observe() is observation
        assert observation.now_ms == 0.0
        # Under D2 every observe draws, and none is carried.
        env.scenario = build_scenario("D2")
        state = env.rng.bit_generator.state
        first = engine.observe()
        assert env.rng.bit_generator.state != state
        assert engine.observe() is not first
        assert not engine.carries(first)

    @staticmethod
    def _count(monkeypatch, service):
        """Count encodes and floor computations during a serve."""
        counts = {"states": 0, "floors": 0}
        inner_state = service.engine.observe_state

        def observe_state(network, observation):
            counts["states"] += 1
            return inner_state(network, observation)

        def floor(sweep, allowed=None):
            counts["floors"] += 1
            return min_feasible_latency_ms(sweep, allowed)

        service.engine.observe_state = observe_state
        monkeypatch.setattr(pipeline_module, "min_feasible_latency_ms",
                            floor)
        return counts

    @staticmethod
    def _bursts(name, count=4, size=5):
        return [Arrival(20_000.0 * burst, name)
                for burst in range(count) for _ in range(size)]

    def test_static_stream_computes_once(self, zoo, monkeypatch):
        case = use_case_for(zoo["mobilenet_v3"])
        service = _service(67)
        service.register(case)
        service.set_learning(False)
        counts = self._count(monkeypatch, service)
        ServingPipeline(service, ServingConfig(
            brownout=BrownoutConfig.disabled(),
        )).serve(self._bursts(case.name))
        assert counts == {"states": 1, "floors": 1}

    def test_scenario_swap_forces_recompute(self, zoo, monkeypatch):
        """A fresh S1 object installed between drains: equal values,
        but a new tag, so state and floor are recomputed once."""
        case = use_case_for(zoo["mobilenet_v3"])
        service = _service(67)
        service.register(case)
        service.set_learning(False)
        _swap_at(service, 30_000.0, build_scenario("S1"))
        counts = self._count(monkeypatch, service)
        ServingPipeline(service, ServingConfig(
            brownout=BrownoutConfig.disabled(),
        )).serve(self._bursts(case.name))
        assert counts == {"states": 2, "floors": 2}

    def test_mask_change_forces_recompute(self, zoo, monkeypatch):
        """A brownout escalation narrows the mask: the floor is judged
        again under the new mask, and the result still matches the
        reference byte for byte."""
        case = use_case_for(zoo["mobilenet_v3"])

        def arrivals():
            return self._bursts(case.name, count=3, size=12)

        config = dict(queue_capacity=None,
                      deadline=DeadlinePolicy(qos_factor=100.0),
                      brownout=BrownoutConfig(enter_depth=8,
                                              exit_depth=2))
        counted = []

        def setup(service):
            # Count on the first service only: the memoized drain.
            if not counted:
                counted.append(self._count(monkeypatch, service))

        fast, _ = _parity(71, lambda: [case], arrivals, config,
                          learning=False, pretrain=30, setup=setup)
        assert fast[1].brownout.escalations >= 1
        assert counted[0]["floors"] >= 2

    def test_redefined_network_forces_recompute(self, zoo):
        """Two use cases whose networks share a name but not a
        definition: each request is encoded from its own network."""
        network = zoo["mobilenet_v3"]
        twin = dataclasses.replace(zoo["resnet_50"], name=network.name)

        def cases():
            return [UseCase(name="original", network=network,
                            qos_ms=50.0),
                    UseCase(name="redefined", network=twin,
                            qos_ms=500.0)]

        def arrivals():
            return [Arrival(5_000.0 * burst, name)
                    for burst in range(4)
                    for name in ("original", "redefined")]

        fast, _ = _parity(
            73, cases, arrivals,
            dict(brownout=BrownoutConfig.disabled()),
        )
        service, _, outcomes = fast
        engine = service.engine
        observation = service.environment.observe()
        expected = {"original": engine.observe_state(network, observation),
                    "redefined": engine.observe_state(twin, observation)}
        assert expected["original"] != expected["redefined"]
        served = [o.arrival.name for o in outcomes if o.delivered]
        assert set(served) == {"original", "redefined"}
        assert [step.state for step in engine.history] \
            == [expected[name] for name in served]


class TestBatchSizeInvariance:
    """A frozen deployment draining a backlog serves identical outcomes
    at batch 64 and at batch 1: same targets, latencies and energies,
    in the same order."""

    def test_backlog_outcomes_do_not_depend_on_batch_size(self, zoo):
        case = use_case_for(zoo["mobilenet_v3"])

        def drain(batch_max):
            service, _, outcomes = _run(
                ServingPipeline, 0, [case],
                [Arrival(0.0, case.name) for _ in range(128)],
                dict(queue_capacity=None,
                     deadline=DeadlinePolicy(qos_factor=1e6),
                     brownout=BrownoutConfig.disabled(),
                     batch_max=batch_max),
                learning=False, pretrain=40,
            )
            return [(served.outcome.target_key, served.outcome.latency_ms,
                     served.outcome.energy_mj) for served in outcomes]

        batched = drain(64)
        assert len(batched) == 128
        assert batched == drain(1)


class TestUseCaseKeyedCoalescing:
    """Regression: shadow/brownout selections depend on the use case's
    QoS budget, so the drain's coalescing key must include the use-case
    name on those branches — two use cases sharing one (network, state)
    bucket must each get *their own* degraded action."""

    def test_browned_bucket_not_shared_across_use_cases(self, zoo):
        network = zoo["mobilenet_v3"]
        probe = _service(41)
        env = probe.environment
        observation = env.observe()
        sweep = env.estimate_all(network, observation)
        latencies = np.asarray(sweep.latency_ms)
        energies = np.asarray(sweep.energy_mj)
        space = probe.engine.action_space
        int8 = np.flatnonzero(np.array(
            [target.precision is Precision.INT8 for target in space],
            dtype=bool))
        cheapest = int(int8[np.argmin(energies[int8])])
        fastest_ms = float(latencies[int8].min())
        assert latencies[cheapest] > fastest_ms, \
            "need a cheapest-but-not-fastest INT8 target for this probe"
        # A budget between the fastest INT8 latency and the cheapest
        # INT8 target's latency: 'tight' must be steered away from the
        # global cheapest, 'loose' must land exactly on it.
        tight_ms = (fastest_ms + float(latencies[cheapest])) / 2.0
        fits = int8[latencies[int8] <= tight_ms]
        expected_tight = int(fits[np.argmin(energies[fits])])
        assert expected_tight != cheapest

        loose = UseCase(name="loose", network=network, qos_ms=1e6)
        tight = UseCase(name="tight", network=network, qos_ms=tight_ms)
        service = _service(41)
        service.register(loose)
        service.register(tight)
        pipeline = ServingPipeline(service, ServingConfig(
            queue_capacity=None, shedding=False,
            brownout=BrownoutConfig(enter_depth=1, exit_depth=0),
        ))
        # 'loose' sorts first, so it seeds the (network, state) bucket;
        # before the fix 'tight' inherited its action.
        pipeline.serve([Arrival(0.0, loose.name),
                        Arrival(0.0, tight.name)])
        by_name = {record.use_case: record
                   for record in service.trace.records}
        assert by_name["loose"].tier == "reduced_precision"
        assert by_name["loose"].target_key == space.target(cheapest).key
        assert by_name["tight"].target_key \
            == space.target(expected_tight).key


class TestArrivalReplayParity:
    """The cursor replay against :class:`EventReplayPipeline`: the same
    admission instants and order with arrivals tied to every other kind
    of kernel event, behind the clock, and at the stream's edges."""

    @pytest.mark.parametrize("resilient", [False, True],
                             ids=["drain", "resilient"])
    def test_arrivals_tied_with_guard_ticks_outages_and_a_timer(
            self, zoo, resilient):
        """Arrivals land exactly on guard ticks (every 1 s), on the
        cloud outage's boundaries (2 s, 5 s, 10 s, 13 s, 18 s) and on
        the drift ``TIMER`` (6 s)."""
        case = use_case_for(zoo["mobilenet_v3"])

        def options():
            return dict(
                faults=FaultPlan(outages=(OutageWindow(
                    "cloud", start_ms=2_000.0, duration_ms=3_000.0,
                    period_ms=8_000.0),)),
                resilience=ResiliencePolicy() if resilient else None,
                guard=PolicyGuard(GuardConfig()),
            )

        def arrivals():
            return [Arrival(1_000.0 * second, case.name)
                    for second in range(21) for _ in range(3)]

        fast, _ = _parity(
            79, lambda: [case], arrivals,
            dict(deadline=DeadlinePolicy(qos_factor=20.0)),
            pretrain=20, service_options_of=options,
            setup=lambda service: _swap_at(service, 6_000.0,
                                           build_scenario("D4")),
            oracle=EventReplayPipeline,
        )
        assert fast[0].environment.scenario.name == "D4"
        assert fast[1].guard.status()["ticks"] >= 20

    def test_arrivals_behind_the_clock_at_serve_start(self, zoo):
        """The clock already stands at 5 s: the first ten arrivals are
        admitted at once, in order, with their queueing delay."""
        case = use_case_for(zoo["mobilenet_v3"])
        fast, _ = _parity(
            83, lambda: [case],
            lambda: [Arrival(500.0 * index, case.name)
                     for index in range(20)],
            dict(deadline=DeadlinePolicy(qos_factor=200.0)),
            setup=lambda service: service.environment.advance_clock_to(
                5_000.0),
            oracle=EventReplayPipeline,
        )
        assert fast[2][0].queue_delay_ms == 5_000.0

    def test_empty_stream(self, zoo):
        case = use_case_for(zoo["mobilenet_v3"])
        fast, _ = _parity(
            89, lambda: [case], lambda: [], {},
            service_options_of=lambda: dict(
                guard=PolicyGuard(GuardConfig())),
            oracle=EventReplayPipeline,
        )
        assert fast[2] == []
        assert fast[0].environment.clock.now_ms == 0.0

    def test_single_arrival(self, zoo):
        case = use_case_for(zoo["mobilenet_v3"])
        fast, _ = _parity(
            97, lambda: [case], lambda: [Arrival(1_234.5, case.name)], {},
            oracle=EventReplayPipeline,
        )
        assert [served.delivered for served in fast[2]] == [True]
        assert fast[2][0].queue_delay_ms == 0.0


class _DecisionLog(ServingPipeline):
    """The production pipeline, logging each decision it makes: which
    decider ran, and the virtual time."""

    def __init__(self, service, config=None):
        super().__init__(service, config)
        self.decisions = []
        clock = service.environment.clock
        select = service.engine.select_action

        def select_action(state, explore=None, allowed=None):
            self.decisions.append(("select", clock.now_ms))
            return select(state, explore=explore, allowed=allowed)

        service.engine.select_action = select_action

    def _shadow_action(self, use_case, observation, mask, local_only):
        self.decisions.append(
            ("shadow", self.service.environment.clock.now_ms))
        return super()._shadow_action(use_case, observation, mask,
                                      local_only)

    def _brownout_action(self, use_case, observation, mask):
        self.decisions.append(
            ("brownout", self.service.environment.clock.now_ms))
        return super()._brownout_action(use_case, observation, mask)


def _at(stage, service):
    """A kernel-timer callback that moves the guard to ``stage`` and
    actuates it on the engine, as a guard tick would."""
    def shift(event):
        service.guard.stage = stage
        ServingPipeline(service)._apply_guard_stage()
    return shift


class TestDecisionMemo:
    """A frozen table decides once per coalescing group for as long as
    the memo's tag holds — drain observation, mask bytes, Q-table
    ``update_count`` — and re-decides when any part moves; a training
    or shadowing engine decides in every drain, also when a timer
    turns training on inside one.  Every case is byte-equal to
    :class:`EventReplayPipeline`, which decides afresh in every
    drain."""

    @staticmethod
    def _parity(cases, arrivals, config=None, **options):
        return _parity(
            101, lambda: cases, lambda: arrivals,
            config or dict(queue_capacity=None,
                           deadline=DeadlinePolicy(qos_factor=100.0),
                           brownout=BrownoutConfig.disabled()),
            pipeline_class=_DecisionLog, oracle=EventReplayPipeline,
            **options)

    @staticmethod
    def _bursts(name, sizes):
        return [Arrival(20_000.0 * burst, name)
                for burst, size in enumerate(sizes) for _ in range(size)]

    def test_frozen_multi_drain_serve_decides_once_per_group(self, zoo):
        """Two networks, four drains: one selection per network."""
        cases = [use_case_for(zoo["mobilenet_v3"]),
                 use_case_for(zoo["resnet_50"])]
        arrivals = [Arrival(20_000.0 * burst, cases[index % 2].name)
                    for burst in range(4) for index in range(6)]
        fast, reference = self._parity(cases, arrivals, learning=False,
                                       pretrain=30)
        # Both in the first drain, each at its network's first request.
        assert [kind for kind, _ in fast[1].decisions] == ["select"] * 2
        assert all(at_ms < 20_000.0 for _, at_ms in fast[1].decisions)
        # Pretraining selected 2 x 30 times; the oracle then decides per
        # network per drain.
        assert reference[0].engine.overhead.select_us.count == 60 + 8

    def test_breaker_trip_forces_a_new_decision(self, zoo):
        """A breaker opened at 30 s on the frozen table's pick narrows
        the mask: the 40 s drain decides again, away from that target,
        and the 60 s drain reuses it."""
        case = use_case_for(zoo["mobilenet_v3"])
        tripped = []

        def setup(service):
            def trip(event):
                key = service.engine.history[-1].target_key
                breaker = CircuitBreaker(BreakerConfig(
                    failure_threshold=1, cooldown_ms=1e9))
                breaker.record_failure(event.time_ms)
                service._breakers[key] = breaker
                tripped.append(key)

            service.environment.kernel.schedule(
                30_000.0, EventKind.TIMER, callback=trip)

        fast, _ = self._parity([case], self._bursts(case.name, [4] * 4),
                               learning=False, pretrain=30, setup=setup)
        assert fast[1].decisions == [("select", 0.0),
                                     ("select", 40_000.0)]
        assert fast[0].engine.history[-1].target_key != tripped[0]

    def test_brownout_tier_change_forces_a_new_decision(self, zoo):
        """NORMAL at 0 s, REDUCED_PRECISION for the 10-request burst at
        20 s, NORMAL again at 40 s (patience 1): each tier change
        changes the mask bytes and drops the memo, so 40 s selects
        again; 60 s reuses."""
        case = use_case_for(zoo["mobilenet_v3"])
        config = dict(queue_capacity=None,
                      deadline=DeadlinePolicy(qos_factor=100.0),
                      brownout=BrownoutConfig(enter_depth=8, exit_depth=2,
                                              patience=1))
        fast, _ = self._parity([case], self._bursts(case.name, [1, 10, 1, 1]),
                               config, learning=False, pretrain=30)
        assert fast[1].decisions == [("select", 0.0),
                                     ("brownout", 20_000.0),
                                     ("select", 40_000.0)]
        assert fast[1].brownout.deescalations == 1

    def test_guard_shadow_round_trip_forces_a_new_decision(self, zoo):
        """SHADOW from 30 s to 70 s: the shadow baseline decides in each
        of its drains (the guard forces training on), and back at
        HEALTHY the frozen table selects again at 80 s."""
        case = use_case_for(zoo["mobilenet_v3"])

        def setup(service):
            kernel = service.environment.kernel
            kernel.schedule(30_000.0, EventKind.TIMER,
                            callback=_at(GuardStage.SHADOW, service))
            kernel.schedule(70_000.0, EventKind.TIMER,
                            callback=_at(GuardStage.HEALTHY, service))

        fast, _ = self._parity(
            [case], self._bursts(case.name, [3] * 6),
            learning=False, pretrain=30, setup=setup,
            # Ticks far apart: only the timers move the stage.
            service_options_of=lambda: dict(guard=PolicyGuard(
                GuardConfig(tick_interval_ms=1e9))),
        )
        assert fast[1].decisions == [("select", 0.0),
                                     ("shadow", 40_000.0),
                                     ("shadow", 60_000.0),
                                     ("select", 80_000.0)]
        assert not fast[0].engine.training

    def test_training_engine_decides_per_drain(self, zoo):
        case = use_case_for(zoo["mobilenet_v3"])
        fast, _ = self._parity([case], self._bursts(case.name, [5] * 4))
        assert fast[1].decisions == [("select", 20_000.0 * burst)
                                     for burst in range(4)]

    def test_learning_switched_on_mid_serve_decides_per_drain(self, zoo):
        """Learning on from 30 s to 50 s with no other part of the tag
        moving: the 40 s drain selects (and may explore) instead of
        reusing the frozen pick, and the Q writes it makes force the
        frozen 60 s drain to select again."""
        case = use_case_for(zoo["mobilenet_v3"])

        def setup(service):
            def learning(enabled):
                return lambda event: service.set_learning(enabled)

            kernel = service.environment.kernel
            kernel.schedule(30_000.0, EventKind.TIMER,
                            callback=learning(True))
            kernel.schedule(50_000.0, EventKind.TIMER,
                            callback=learning(False))

        fast, _ = self._parity([case], self._bursts(case.name, [5] * 5),
                               learning=False, pretrain=30, setup=setup)
        assert fast[1].decisions == [("select", 0.0),
                                     ("select", 40_000.0),
                                     ("select", 60_000.0)]

    @pytest.mark.parametrize("switch", ["readapt", "learning"])
    def test_learning_switched_on_inside_a_drain(self, zoo, switch):
        """Two networks alternate in each burst of a frozen serve.  A
        timer just after the second burst starts turns training on
        (a READAPT guard stage, or ``set_learning(True)``) while that
        drain executes: its first request reuses the memo, but the
        other network's first request selects with exploration on, as
        a drain that decides afresh does."""
        cases = [use_case_for(zoo["mobilenet_v3"]),
                 use_case_for(zoo["resnet_50"])]
        arrivals = [Arrival(20_000.0 * burst, cases[index % 2].name)
                    for burst in range(2) for index in range(6)]

        def setup(service):
            if switch == "readapt":
                callback = _at(GuardStage.READAPT, service)
            else:
                def callback(event):
                    service.set_learning(True)
            service.environment.kernel.schedule(
                20_000.001, EventKind.TIMER, callback=callback)

        fast, _ = self._parity(
            cases, arrivals, learning=False, pretrain=30, setup=setup,
            service_options_of=lambda: dict(guard=PolicyGuard(
                GuardConfig(tick_interval_ms=1e9))),
        )
        assert fast[0].engine.training
        # One selection per network in the first drain, then only the
        # one made after the timer in the second.
        times = [at_ms for _, at_ms in fast[1].decisions]
        assert len(times) == 3
        assert times[1] < 20_000.0 < 20_000.001 < times[2]

    def test_learning_switched_on_and_off_inside_a_drain(self, zoo):
        """Three networks per burst.  Learning comes on while the second
        drain's first request executes, whose Q write schedules learning
        off again while the second executes.  The third network finds
        the engine frozen but the table written since the drain began,
        so it selects afresh instead of reusing the memo (a Q write can
        move a frozen pick: unvisited states fall back to a sibling)."""
        cases = [use_case_for(zoo["mobilenet_v3"]),
                 use_case_for(zoo["resnet_50"]),
                 use_case_for(zoo["mobilebert"])]
        arrivals = [Arrival(20_000.0 * burst, case.name)
                    for burst in range(2) for case in cases]

        def setup(service):
            kernel = service.environment.kernel
            update = service.engine.qtable.update

            def update_then_freeze(*args, **kwargs):
                kernel.schedule_in(
                    0.001, EventKind.TIMER,
                    callback=lambda event: service.set_learning(False))
                return update(*args, **kwargs)

            service.engine.qtable.update = update_then_freeze
            kernel.schedule(20_000.001, EventKind.TIMER,
                            callback=lambda event: service.set_learning(True))

        fast, _ = self._parity(cases, arrivals, learning=False,
                               pretrain=30, setup=setup)
        assert not fast[0].engine.training
        assert fast[0].engine.qtable.update_count == 3 * 30 + 1
        times = [at_ms for _, at_ms in fast[1].decisions]
        assert len(times) == 5
        assert times[2] < 20_000.0 < times[3] < times[4]

    def test_decisions_follow_the_tag(self):
        """Unit view of the tag: a Q-table write drops the decisions and
        keeps the floors; a mask change drops both; the brownout tier
        and the guard stage are not part of it."""
        service = _service(61)
        engine = service.engine
        pipeline = ServingPipeline(service)
        observation = engine.observe()
        floors, decisions = pipeline._memos(observation, None)
        assert pipeline._memos(observation, None) == (floors, decisions)
        assert pipeline._memos(observation, None)[1] is decisions

        def changed(mask=None):
            nonlocal decisions
            now_floors, now_decisions = pipeline._memos(observation, mask)
            fresh = now_decisions is not decisions
            decisions = now_decisions
            return now_floors is floors, fresh

        pipeline.brownout.tier = BrownoutTier.REDUCED_PRECISION
        pipeline.guard.stage = GuardStage.SHADOW
        assert changed() == (True, False)
        engine.qtable.update(0, 0, 1.0, 0)
        assert changed() == (True, True)
        assert changed() == (True, False)
        mask = np.ones(len(engine.action_space), dtype=bool)
        mask[0] = False
        assert changed(mask) == (False, True)

"""The serving pipeline: admission, shedding, brownout, one drain.

:class:`ServingPipeline` stands in front of one
:class:`~repro.core.service.AutoScaleService` and replays an open-loop
arrival stream on the environment's virtual clock, reading it from a
cursor over the ``(at_ms, name)``-sorted stream (arrivals never enter
the event kernel's heap):

1. Arrivals due at the current virtual time enter the bounded admission
   queue (or are shed ``QUEUE_FULL`` under backpressure), carrying a
   QoS-derived absolute deadline.
2. Each drain cycle lets the brownout controller react to queue depth,
   pops a FIFO batch, and takes **one** observation for it.
3. Per request, the deadline-aware shedder drops work that already
   blew its deadline (``EXPIRED``) or provably cannot make it even on
   the fastest allowed target (``INFEASIBLE``, via the cached nominal
   sweep) — *before* any energy is spent.
4. Surviving requests are coalesced by ``(network, state)``: the engine
   selects once per group (one Q-table row read) and completes each
   request through :meth:`~repro.core.engine.AutoScale.step_with_action`
   — execution, reward, and Q update remain per-request, so the
   learning dynamics match request-at-a-time serving exactly.

There is one drain, and it runs per request under every configuration
(static or dynamic scenario, frozen or training, guard, brownout,
retries).  Its observations and states come from the engine's one carry
rule (:meth:`~repro.core.engine.AutoScale.observe`); the pipeline keeps
only a per-serve memo of each network's feasibility floor and, for a
frozen table, of each coalescing group's decision.  None of them
changes an observable: trace rows, Q-table bytes, shed ledgers, RNG
streams and the virtual clock are what they would be without them.

``ServingConfig.disabled()`` bypasses all of it and reproduces the
direct :meth:`~repro.core.service.AutoScaleService.handle` path
bit-for-bit; the enabled pipeline under zero overload (every batch of
size one, NORMAL tier, nothing shed) is bit-identical too, because the
shedder and the brownout controller draw no RNG.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.analysis.contracts import ensure_duration_ms
from repro.common import ConfigError, slot_init
from repro.env.target import combine_masks
from repro.guard import GuardStage
from repro.serving.arrivals import Arrival
from repro.serving.brownout import (
    BrownoutConfig,
    BrownoutController,
    BrownoutTier,
)
from repro.serving.queue import AdmissionQueue, QueuedRequest
from repro.serving.shedder import (
    DeadlinePolicy,
    ShedReason,
    ShedStats,
    SheddedRequest,
    min_feasible_latency_ms,
)
from repro.sim.events import EventKind

__all__ = ["ServingConfig", "ServedRequest", "ServingPipeline"]

_INF = float("inf")


@dataclass(frozen=True)
class ServingConfig:
    """What the pipeline does between arrival and engine.

    Attributes:
        enabled: master switch; :meth:`disabled` reproduces the direct
            ``handle`` path bit-identically.
        queue_capacity: admission-queue bound (``None`` = unbounded).
        deadline: how deadlines derive from QoS targets.
        shedding: run the deadline-aware shedder (expired + infeasible
            checks).  Queue-full backpressure is governed by
            ``queue_capacity`` alone.
        brownout: the degradation controller's watermarks.
        batch_max: cap on requests drained per cycle (``None`` = all).
    """

    enabled: bool = True
    queue_capacity: Optional[int] = 64
    deadline: DeadlinePolicy = DeadlinePolicy()
    shedding: bool = True
    brownout: BrownoutConfig = BrownoutConfig()
    batch_max: Optional[int] = None

    def __post_init__(self):
        if self.batch_max is not None and self.batch_max < 1:
            raise ConfigError(
                f"batch_max must be >= 1 (or None), got {self.batch_max}"
            )

    @classmethod
    def disabled(cls):
        """No queue, no shedder, no brownout: the direct path."""
        return cls(enabled=False)

    @classmethod
    def fifo(cls):
        """The naive comparison policy: unbounded FIFO, serve everything
        in arrival order, never shed, never degrade."""
        return cls(queue_capacity=None, shedding=False,
                   brownout=BrownoutConfig.disabled())

    @classmethod
    def shed_only(cls):
        """Deadline-aware shedding without brownout degradation."""
        return cls(brownout=BrownoutConfig.disabled())


@slot_init
@dataclass(frozen=True, slots=True)
class ServedRequest:
    """One arrival's final outcome as the pipeline saw it.

    ``outcome`` is an :class:`~repro.env.result.ExecutionResult`, a
    :class:`~repro.faults.FailedAttempt`, or a
    :class:`~repro.serving.shedder.SheddedRequest` — all three carry
    the typed ``failed`` / ``shed`` discriminators, so no duck-typing
    is involved in reading them back.
    """

    arrival: Arrival
    outcome: object
    queue_delay_ms: float = 0.0
    tier: str = "normal"

    def __post_init__(self):
        # One chained comparison accepts every valid delay (NaN fails
        # it); anything else goes through the named check, which raises
        # the precise contract violation.
        try:
            if 0.0 <= self.queue_delay_ms < _INF:
                return
        except (TypeError, ValueError):
            pass
        ensure_duration_ms(self.queue_delay_ms, "queue_delay_ms")

    @property
    def shed(self):
        return self.outcome.shed

    @property
    def failed(self):
        return self.outcome.failed

    @property
    def delivered(self):
        return not (self.shed or self.failed)


class ServingPipeline:
    """Drives one service through an open-loop arrival stream."""

    def __init__(self, service, config=None):
        # Every mask, sweep and pick below indexes the environment's
        # action space with the engine's action indices.
        if (service.engine.action_space.keys
                != service.environment.action_space.keys):
            raise ConfigError(
                "the serving pipeline needs an engine over its "
                "environment's action space; this engine's space has "
                f"{len(service.engine.action_space)} of the environment's "
                f"{len(service.environment.action_space)} targets"
            )
        self.service = service
        self.config = config if config is not None else ServingConfig()
        self.queue = AdmissionQueue(self.config.queue_capacity)
        self.brownout = BrownoutController(self.config.brownout)
        self.shed_stats = ShedStats()
        # The policy guard lives on the service (it outlives any single
        # pipeline); the pipeline hosts its GUARD_TICK loop and reads
        # the stage back at decision time.
        self.guard = service.guard
        self._guard_handle = None
        # The per-serve floor and decision memos and their tag.
        self._floors, self._decisions, self._memo_tag = {}, {}, None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def serve(self, arrivals):
        """Replay an arrival stream; returns one outcome per arrival.

        Arrivals are served in ``(at_ms, name)`` order.  Outcomes come
        back in *completion* order, which under coalescing can differ
        from arrival order within a drain cycle.
        """
        ordered = sorted(arrivals, key=lambda a: (a.at_ms, a.name))
        if not self.config.enabled:
            return self._serve_direct(ordered)
        return self._serve_pipelined(ordered)

    # ------------------------------------------------------------------
    # Disabled: the historical closed-loop path, bit-for-bit
    # ------------------------------------------------------------------

    def _serve_direct(self, ordered):
        env = self.service.environment
        outcomes: List[ServedRequest] = []
        for arrival in ordered:
            self.shed_stats.note_offered()
            env.advance_clock_to(arrival.at_ms)
            wait_ms = max(0.0, env.clock.now_ms - arrival.at_ms)
            result = self.service.handle(arrival.name)
            self.shed_stats.note_served()
            outcomes.append(ServedRequest(arrival, result,
                                          queue_delay_ms=wait_ms))
        return outcomes

    # ------------------------------------------------------------------
    # Enabled: admit -> shed -> brownout -> coalesced drain
    # ------------------------------------------------------------------

    def _serve_pipelined(self, ordered):
        """Replay ``ordered`` from a cursor, off the kernel's heap.

        Each cycle fires the kernel events now due, then admits every
        arrival at or before now; an idle queue jumps the clock to the
        next arrival.  Arrivals passed mid-drain wait for the next cycle
        top, where an event per arrival would have delivered them too.
        The engine's carry outlives the serve; the memos do not.
        """
        env = self.service.environment
        kernel = env.kernel
        self._memo_tag = None
        outcomes: List[ServedRequest] = []
        count, cursor = len(ordered), 0
        if self.guard.enabled:
            # A restored guard may already be escalated: actuate its
            # stage before the first request, then start the periodic
            # GUARD_TICK loop on the shared heap (no per-cycle sweeps).
            self._apply_guard_stage()
            self._guard_handle = kernel.schedule_in(
                self.guard.config.tick_interval_ms, EventKind.GUARD_TICK,
                callback=self._on_guard_tick,
            )
        try:
            while True:
                kernel.fire_due()
                now_ms = env.clock.now_ms
                while cursor < count and ordered[cursor].at_ms <= now_ms:
                    self._admit(ordered[cursor], now_ms, outcomes)
                    cursor += 1
                if self.queue.depth == 0:
                    if cursor == count:
                        return outcomes
                    env.advance_clock_to(ordered[cursor].at_ms)
                    continue
                self._drain_cycle(outcomes)
        finally:
            if self._guard_handle is not None:
                self._guard_handle.cancel()
                self._guard_handle = None

    def _on_guard_tick(self, event):
        """One ``GUARD_TICK``: evaluate the supervisor, re-arm the next
        tick.

        The next tick keeps the nominal cadence (anchored at the due
        instant, not the firing instant) unless a long execution pushed
        the clock past it, in which case it re-anchors at *now* — one
        evaluation per elapsed interval, never a catch-up burst of
        back-to-back ticks over the same evidence.
        """
        env = self.service.environment
        if self.guard.evaluate(env.clock.now_ms):
            self._apply_guard_stage()
        next_ms = event.time_ms + self.guard.config.tick_interval_ms
        if next_ms <= env.clock.now_ms:
            next_ms = env.clock.now_ms + self.guard.config.tick_interval_ms
        self._guard_handle = env.kernel.schedule(
            next_ms, EventKind.GUARD_TICK, callback=self._on_guard_tick,
        )

    def _apply_guard_stage(self):
        """Actuate the supervisor's stage on the learning engine.

        READAPT boosts the learning rate (capped at 1.0) and re-enables
        exploration via a temporary :class:`QLearningConfig`; SHADOW and
        DEGRADE restore the base hyperparameters but force training on,
        so the table keeps learning *off-policy* from the shadow
        decisions; HEALTHY restores the pre-escalation configuration
        exactly.  The base is parked on the *service* (which outlives
        any single pipeline) so a fresh pipeline created mid-incident
        cannot mistake a boosted config for the baseline.
        """
        service = self.service
        engine = service.engine
        stage = self.guard.stage
        base = service._guard_base
        if stage is GuardStage.HEALTHY:
            if base is not None:
                base_config, base_training = base
                engine.config = base_config
                engine.qtable.config = base_config
                engine.training = base_training
                service._guard_base = None
            return
        if base is None:
            base = (engine.config, engine.training)
            service._guard_base = base
        base_config, _ = base
        if stage is GuardStage.READAPT:
            boosted = replace(
                base_config,
                learning_rate=min(
                    1.0,
                    base_config.learning_rate
                    * self.guard.config.readapt_gamma_scale,
                ),
                epsilon=self.guard.config.readapt_epsilon,
            )
            engine.config = boosted
            engine.qtable.config = boosted
        else:
            engine.config = base_config
            engine.qtable.config = base_config
        engine.training = True

    def _admit(self, arrival, now_ms, outcomes):
        self.shed_stats.note_offered()
        use_case = self.service.use_case(arrival.name)
        deadline_ms = self.config.deadline.deadline_ms(
            arrival.at_ms, use_case.qos_ms
        )
        request = QueuedRequest(arrival, use_case, deadline_ms)
        if not self.queue.admit(request):
            self._shed(request, ShedReason.QUEUE_FULL, now_ms, outcomes)

    def _shed(self, request, reason, now_ms, outcomes):
        shed = SheddedRequest(
            reason=reason,
            name=request.arrival.name,
            at_ms=request.arrival.at_ms,
            shed_at_ms=now_ms,
            deadline_ms=request.deadline_ms,
            queue_delay_ms=request.queue_delay_ms(now_ms),
        )
        self.shed_stats.note_shed(reason)
        self.service.trace.record_shed(
            shed, request.use_case,
            tier=self.brownout.tier.value,
            reason=self._trace_reason(),
        )
        self.guard.note_refusal()
        outcomes.append(ServedRequest(
            request.arrival, shed,
            queue_delay_ms=shed.queue_delay_ms,
            tier=self.brownout.tier.value,
        ))

    def _decision_key(self, use_case, state, shadowing, browned):
        """The drain coalescing key for one request.

        Normal selections depend only on ``(network, state)`` — the
        Q-table row — but shadow and brownout selections also read the
        use case's QoS budget, so those branches key per use case: two
        use cases sharing a (network, state) bucket must not inherit
        each other's degraded action.
        """
        if shadowing or browned:
            return (use_case.network.name, state, use_case.name)
        return (use_case.network.name, state)

    def _memos(self, observation, mask):
        """This serve's memos for one drain: ``(floors, decisions)``.

        The per-network feasibility floors are kept from the previous
        drain while the drain observation is the same object and the
        combined mask has the same bytes.  The frozen table's group
        decisions are kept while the Q-table's ``update_count`` holds
        too; :meth:`_drain_cycle` reads or fills them only while the
        engine is frozen, not shadowing, and that count still holds.
        """
        mask_bytes = None if mask is None else mask.tobytes()
        updates = self.service.engine.qtable.update_count
        tag = self._memo_tag
        if tag is None or tag[0] is not observation \
                or tag[1] != mask_bytes:
            self._floors, self._decisions = {}, {}
        elif tag[2] != updates:
            self._decisions = {}
        self._memo_tag = (observation, mask_bytes, updates)
        return self._floors, self._decisions

    def _drain_cycle(self, outcomes):
        """One drain: observe once, shed the hopeless, coalesce the rest.

        Per request, in FIFO order: shed it if its deadline has passed
        (``EXPIRED``) or the fastest allowed target cannot meet it
        (``INFEASIBLE``); otherwise select once per coalescing group and
        complete it through
        :meth:`~repro.core.engine.AutoScale.step_with_action`.

        The drain observes and encodes through the engine's carry.  A
        network's floor is memoized (:meth:`_memos`) while the engine
        still carries the drain observation.  Once a kernel ``TIMER``
        swaps the scenario mid-drain, the floor is re-judged per request
        against a sample taken in this drain, refreshed whenever the
        clock has moved; a carried observation may predate the drain,
        so it never stands in as that sample.  A group's decision is
        taken from the memo only if, when the group first appears in
        this drain, the engine is frozen, not shadowing, and has made
        no Q write since the drain began.
        """
        service = self.service
        env = service.environment
        engine = service.engine
        tier = self.brownout.observe_pressure(self.queue.depth)
        batch = self.queue.take_batch(self.config.batch_max)
        mask = combine_masks(service.action_mask(),
                             self.brownout.mask(env.action_space))
        browned = self.brownout.tier is not BrownoutTier.NORMAL
        observation = engine.observe()
        floors, memo = self._memos(observation, mask)
        updates = engine.qtable.update_count
        # One selection per (network, state) group; execution, reward,
        # and Q update stay per-request via step_with_action.
        decisions = {}
        # The freshest feasibility sample taken in this drain — a batch
        # of one (the pinned zero-overload path) never re-observes.
        fresh = None if engine.carries(observation) else observation
        guard = self.guard
        for request in batch:
            now_ms = env.clock.now_ms
            use_case = request.use_case
            network = use_case.network
            if self.config.shedding:
                if request.remaining_ms(now_ms) < 0:
                    self._shed(request, ShedReason.EXPIRED, now_ms,
                               outcomes)
                    continue
                if engine.carries(observation):
                    entry = floors.get(network.name)
                    if entry is None or entry[0] is not network:
                        entry = floors[network.name] = (
                            network, min_feasible_latency_ms(
                                env.estimate_all(network, observation),
                                mask))
                    floor_ms = entry[1]
                else:
                    if fresh is None or fresh.now_ms != now_ms:
                        fresh = engine.observe()
                    floor_ms = min_feasible_latency_ms(
                        env.estimate_all(network, fresh), mask)
                if now_ms + floor_ms > request.deadline_ms:
                    self._shed(request, ShedReason.INFEASIBLE, now_ms,
                               outcomes)
                    continue
            wait_ms = request.queue_delay_ms(now_ms)
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
                state = engine.state_of(network, observation)
                key = self._decision_key(use_case, state, shadowing,
                                         browned)
                if key not in decisions:
                    # A timer may have turned training on since the
                    # drain began, so this is judged per group.
                    frozen = (not shadowing and not engine.training
                              and engine.qtable.update_count == updates)
                    if frozen and key in memo:
                        decisions[key] = memo[key]
                    elif shadowing:
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
                    if frozen:
                        memo[key] = decisions[key]
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

    def _brownout_action(self, use_case, observation, mask):
        """Nominal-cost selection for an escalated brownout tier.

        A brownout mask deliberately admits quality-violating actions,
        and equation (5)'s accuracy-failure branch scores all of those
        identically — the Q-table has no signal to rank them.  So under
        an escalated tier the pipeline picks by the nominal cost model
        instead: the cheapest allowed target whose nominal latency fits
        the QoS budget (falling back to the cheapest allowed outright).
        The executed step still feeds the Q update as usual.
        """
        env = self.service.environment
        sweep = env.estimate_all(use_case.network, observation)
        latencies = np.asarray(sweep.latency_ms)
        energies = np.asarray(sweep.energy_mj)
        indices = (np.flatnonzero(np.asarray(mask, dtype=bool))
                   if mask is not None and np.any(mask)
                   else np.arange(len(latencies)))
        fits = indices[latencies[indices] <= use_case.qos_ms]
        pool = fits if len(fits) else indices
        return int(pool[np.argmin(energies[pool])])

    def _shadow_action(self, use_case, observation, mask, local_only):
        """The guard's shadow baseline: nominal-argmin via
        ``estimate_all``.

        SHADOW picks the cheapest accuracy+QoS-feasible target under
        the *current* nominal cost model — no learned state involved,
        and zero extra energy since the sweep is the cached estimator.
        DEGRADE additionally restricts to local targets (the PR 3
        graceful-degradation posture), falling back to the full allowed
        set only when the masks leave no local target at all.  Breaker
        and brownout masks keep applying in both stages.
        """
        env = self.service.environment
        sweep = env.estimate_all(use_case.network, observation)
        energies = np.asarray(sweep.energy_mj)
        allowed = (np.asarray(mask, dtype=bool)
                   if mask is not None and np.any(mask)
                   else np.ones(len(energies), dtype=bool))
        if local_only:
            local = allowed & env.action_space.local
            if local.any():
                allowed = local
        indices = [int(i) for i in np.flatnonzero(allowed)]
        best = sweep.argbest(use_case, indices=indices)
        if best is None:
            best = int(indices[int(np.argmin(energies[indices]))])
        return int(best)

    def _feed_guard(self, step, use_case, observation, wait_ms):
        """Feed one completed engine step to the guard's detectors.

        The residual compares the *a-priori* nominal energy for the
        chosen action (from the same observation the decision used)
        against the billed outcome — not ``estimated_energy_mj``, which
        is derived from the measured latency and would track stragglers
        instead of exposing them.
        """
        guard = self.guard
        result = step.result
        if result.failed:
            guard.note_refusal()
        else:
            sweep = self.service.environment.estimate_all(
                use_case.network, observation)
            nominal_mj = float(np.asarray(sweep.energy_mj)[step.action])
            guard.note_result(
                f"{use_case.network.name}|{step.state}",
                nominal_mj, result.energy_mj,
                wait_ms + result.latency_ms <= use_case.qos_ms,
            )
        if self.service.engine.training:
            guard.note_q_delta(step.q_delta,
                               self.service.engine.config.learning_rate)

    def _trace_reason(self):
        """The degradation reason code for trace rows written now."""
        if self.guard.active:
            return self.guard.annotation()
        if self.brownout.tier is not BrownoutTier.NORMAL:
            return f"brownout/{self.brownout.tier.value}"
        return ""

    def _serve_resilient(self, use_case, wait_ms, tier):
        """One request through PR 3's retry/breaker/degrade path.

        Retries re-observe between attempts, so coalescing does not
        apply; the brownout mask composes with the breaker mask inside
        the retry loop.  The pipeline's queueing columns ride down into
        the resilient path's own trace record — stamping the record at
        construction rather than rewriting ``trace.records[-1]``, whose
        tail may already belong to another request (or be gone entirely)
        once the rolling window starts evicting.
        """
        service = self.service
        space = service.environment.action_space
        extra_allowed = self.brownout.mask(space)
        if (self.guard.enabled and self.guard.stage is GuardStage.DEGRADE
                and space.local.any()):
            # DEGRADE on the resilient path: keep the retry/breaker
            # machinery but fence selection to local targets, which the
            # fault plan cannot touch.
            extra_allowed = combine_masks(extra_allowed, space.local)
        return service._handle_resilient(
            use_case, extra_allowed=extra_allowed,
            queue_delay_ms=wait_ms, tier=tier.value,
            reason=self._trace_reason(),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self):
        """One call, full serving health: queue, sheds, brownout, the
        environment's fault ledger, and the policy guard's counters."""
        return {
            "queue_depth": self.queue.depth,
            "queue_peak_depth": self.queue.peak_depth,
            "queue_admitted": self.queue.admitted,
            "queue_rejected": self.queue.rejected,
            "brownout_tier": self.brownout.tier.value,
            "brownout_escalations": self.brownout.escalations,
            "brownout_deescalations": self.brownout.deescalations,
            "sheds": self.shed_stats.as_dict(),
            "guard": self.guard.status(),
            "faults": self.service.environment.fault_stats.as_dict(),
        }

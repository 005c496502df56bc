"""AutoScaleService: the engine packaged the way a product would ship it.

Footnote 7: "AutoScale is implemented as part of intelligent services and
runs on the mobile CPU."  This facade is that integration surface — one
object that owns the engine, keeps a rolling trace, persists/restores its
table, and exposes the two calls a service framework needs:

- :meth:`handle` — schedule and execute one inference request;
- :meth:`checkpoint` / :meth:`restore` — survive process restarts.

Training is continuous by default (the paper's "continuously learns"),
with :meth:`set_learning` to pin a converged table in place.

With a :class:`~repro.faults.ResiliencePolicy` attached, :meth:`handle`
becomes the *resilient* serving path (see docs/robustness.md): remote
attempts run under a deadline, failed attempts are retried with
exponential backoff and jitter, repeat offenders are circuit-broken out
of the engine's action space, and a request whose retries are exhausted
degrades to the best local target rather than failing the caller.
``ResiliencePolicy.disabled()`` (the default) is bit-identical to the
historical single-attempt path.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.common import ConfigError, UnknownKeyError, make_rng
from repro.core.engine import AutoScale
from repro.core.persistence import (
    load_engine,
    load_guard,
    save_engine,
    save_guard,
)
from repro.core.tracing import TraceRecorder, load_trace
from repro.env.target import combine_masks
from repro.faults.breaker import CircuitBreaker
from repro.faults.resilience import ResiliencePolicy
from repro.guard import GuardConfig, PolicyGuard
from repro.sim.events import EventKind

__all__ = ["AutoScaleService"]


class AutoScaleService:
    """A deployable wrapper around one engine and its bookkeeping."""

    def __init__(self, environment, engine=None, seed=None,
                 trace_limit=10_000, resilience=None, guard=None):
        if trace_limit < 1:
            raise ConfigError("trace_limit must be >= 1")
        self.environment = environment
        self.engine = engine or AutoScale(environment, seed=seed)
        self.trace = TraceRecorder(max_records=trace_limit)
        self.trace_limit = trace_limit
        self.resilience = (resilience if resilience is not None
                           else ResiliencePolicy.disabled())
        # The policy guard (see repro.guard) defaults to the inert
        # configuration: no ticks, no detector feeds, bit-identical
        # serving.  The serving pipeline hosts its GUARD_TICK loop.
        self.guard = (guard if guard is not None
                      else PolicyGuard(GuardConfig.disabled()))
        # Pre-escalation engine hyperparameters, parked here by the
        # serving pipeline while the guard holds a non-HEALTHY stage.
        self._guard_base = None
        self._retry_rng = make_rng(seed)
        self._breakers = {}
        self._registered = {}

    # ------------------------------------------------------------------
    # Service registry
    # ------------------------------------------------------------------

    def register(self, use_case):
        """Register a service's use case; returns its name handle."""
        self._registered[use_case.name] = use_case
        return use_case.name

    def use_case(self, name):
        try:
            return self._registered[name]
        except KeyError:
            raise UnknownKeyError(
                f"no registered service {name!r}; "
                f"known: {sorted(self._registered)}"
            ) from None

    @property
    def services(self):
        return tuple(sorted(self._registered))

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def handle(self, name):
        """Schedule and execute one inference for a registered service.

        Returns the :class:`~repro.env.result.ExecutionResult` — or,
        with faults active and no resilience policy, possibly a
        :class:`~repro.faults.FailedAttempt` (the naive path surfaces
        failures to the caller; the resilient path absorbs them).
        """
        use_case = self.use_case(name)
        if not self.resilience.enabled:
            step = self.engine.step(use_case)
            self.trace.record_step(step, use_case,
                                   at_ms=self.environment.clock.now_ms)
            return step.result
        return self._handle_resilient(use_case)

    def serve(self, arrivals, config=None):
        """Replay an open-loop arrival stream through the serving
        pipeline (see :mod:`repro.serving`); returns one
        :class:`~repro.serving.ServedRequest` per arrival.

        ``config`` is a :class:`~repro.serving.ServingConfig`; the
        default enables the bounded queue, the deadline-aware shedder,
        and the brownout controller.
        """
        # Imported lazily: repro.serving builds on this module.
        from repro.serving.pipeline import ServingPipeline
        return ServingPipeline(self, config).serve(arrivals)

    def _handle_resilient(self, use_case, extra_allowed=None,
                          queue_delay_ms=0.0, tier="normal", reason=""):
        """The resilient request path: deadline, retries, degradation.

        Every attempt goes through the engine's full Algorithm-1 cycle,
        so failed attempts also *teach* the Q-table (their reward sits
        below every delivering action's) while the breakers mask the
        worst offenders out of selection entirely.  ``extra_allowed``
        (the serving pipeline's brownout mask) intersects with the
        breaker mask on every attempt.  ``queue_delay_ms``/``tier`` are
        the pipeline's queueing columns, written into the trace record
        at construction — re-stamping the trace tail after the fact
        would race the rolling window's eviction.
        """
        policy = self.resilience
        env = self.environment
        deadline_ms = policy.deadline_ms(use_case.qos_ms)
        failed_energy_mj = 0.0
        attempts = 0
        step = None
        while attempts <= policy.max_retries:
            step = self.engine.step(
                use_case,
                allowed_actions=combine_masks(self.action_mask(),
                                              extra_allowed),
                deadline_ms=deadline_ms,
            )
            attempts += 1
            self._note_outcome(step)
            if not step.result.failed:
                self.trace.record_step(
                    step, use_case, at_ms=env.clock.now_ms,
                    status="ok", retries=attempts - 1,
                    failed_energy_mj=failed_energy_mj,
                    queue_delay_ms=queue_delay_ms, tier=tier,
                    reason=reason,
                )
                return step.result
            failed_energy_mj += step.result.energy_mj
            if attempts <= policy.max_retries:
                self._backoff(policy.backoff_ms(attempts - 1,
                                                self._retry_rng))
        # Retries exhausted: degrade to the best local target, which the
        # fault plan cannot touch.  Only a use case with no accuracy-
        # feasible local target at all still fails.
        result = self._degrade(use_case)
        if result is None:
            self.trace.record_step(
                step, use_case, at_ms=env.clock.now_ms,
                status="failed", retries=attempts - 1,
                failed_energy_mj=failed_energy_mj - step.result.energy_mj,
                queue_delay_ms=queue_delay_ms, tier=tier,
                reason=reason,
            )
            return step.result
        self.trace.record_result(
            result, use_case, at_ms=env.clock.now_ms,
            status="degraded", retries=attempts - 1,
            failed_energy_mj=failed_energy_mj,
            queue_delay_ms=queue_delay_ms, tier=tier,
            reason=reason,
        )
        return result

    def _backoff(self, delay_ms):
        """Wait out one retry backoff as a typed timeline event.

        The wait is scheduled as a ``RETRY`` event and the clock is
        advanced through the environment funnel, so the backoff is
        visible on the event timeline and anything else due inside the
        window (queued arrivals, outage boundaries) fires in order
        during the wait.  The advance is the same single
        ``delta``-advance as before, keeping timestamps bit-identical.
        """
        self.environment.kernel.schedule_in(delay_ms, EventKind.RETRY)
        self.environment.advance_clock(delay_ms)

    def _degrade(self, use_case):
        """Execute the best accuracy-feasible local target directly.

        The pick ranges over the environment's action space, not the
        engine's: a remote-only engine still degrades to the phone.
        """
        env = self.environment
        local_indices = np.flatnonzero(env.action_space.local)
        if not local_indices.size:
            return None
        observation = self.engine.observe()
        sweep = env.estimate_all(use_case.network, observation)
        best = sweep.argbest(use_case, indices=local_indices)
        if best is None:
            return None
        return env.execute(use_case.network, env.action_space.target(best),
                           observation)

    # ------------------------------------------------------------------
    # Circuit breakers
    # ------------------------------------------------------------------

    def action_mask(self):
        """The breakers' boolean mask over the engine's action space
        (``None`` = all).

        Public so the serving pipeline can intersect it with its own
        brownout mask before selection.
        """
        if not self._breakers:
            return None
        now_ms = self.environment.clock.now_ms
        verdicts = {key: breaker.allows(now_ms)
                    for key, breaker in self._breakers.items()}
        if all(verdicts.values()):
            return None
        return np.array([verdicts.get(key, True)
                         for key in self.engine.action_space.keys],
                        dtype=bool)

    def _note_outcome(self, step):
        """Feed one attempt's outcome to its target's breaker."""
        target = self.engine.action_space.target(step.action)
        if not target.is_remote:
            return
        breaker = self._breakers.get(target.key)
        if breaker is None:
            if not step.result.failed:
                return  # no breaker bookkeeping for healthy targets
            breaker = CircuitBreaker(self.resilience.breaker)
            self._breakers[target.key] = breaker
        now_ms = self.environment.clock.now_ms
        if step.result.failed:
            breaker.record_failure(now_ms)
        else:
            breaker.record_success(now_ms)

    def breaker_states(self):
        """Current breaker state per (ever-failed) remote target key."""
        return {key: breaker.state.value
                for key, breaker in sorted(self._breakers.items())}

    def set_learning(self, enabled):
        """Toggle continuous learning (off pins the trained table)."""
        if enabled:
            self.engine.unfreeze()
        else:
            self.engine.freeze()

    @property
    def learning(self):
        return self.engine.training

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self):
        """A service-health snapshot.

        With traffic recorded this includes the trace summary's
        resilience block (``availability_pct``, ``degraded_pct``,
        ``retries_per_request``, ``failed_energy_mj``) plus the live
        breaker states and the environment's fault counters.
        """
        status = {
            "services": list(self.services),
            "learning": self.learning,
            "resilience_enabled": self.resilience.enabled,
            "inferences_served": self.engine.total_steps,
            "qtable_mb": self.engine.memory_footprint_bytes() / 1e6,
            "converged": self.engine.converged,
            "breakers": self.breaker_states(),
            "guard": self.guard.status(),
            "faults": self.environment.fault_stats.as_dict(),
        }
        if len(self.trace):
            status.update(self.trace.summary())
        return status

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def checkpoint(self, directory):
        """Persist the trained table (and the current trace) to disk.

        An *enabled* policy guard is serialized alongside (detector
        baselines, CUSUM accumulators, dwell counters, stage), so a
        restart mid-incident resumes the supervisor exactly where it
        was instead of silently re-arming a healthy one.
        """
        path = save_engine(self.engine, directory)
        if len(self.trace):
            self.trace.save(pathlib.Path(directory) / "trace.jsonl")
        if self.guard.enabled:
            save_guard(self.guard, directory)
        return path

    @classmethod
    def restore(cls, directory, environment, seed=None,
                trace_limit=10_000, resilience=None, guard=None):
        """Reconstruct a service from a checkpoint.

        Restores the trained table *and* the rolling trace (when the
        checkpoint saved one), bounded by ``trace_limit`` — so a
        restarted service resumes with its observability intact instead
        of an empty history.  A persisted guard blob is restored the
        same way unless an explicit ``guard`` overrides it.
        """
        engine = load_engine(directory, environment, seed=seed)
        if guard is None:
            guard = load_guard(directory)
        service = cls(environment, engine=engine, trace_limit=trace_limit,
                      resilience=resilience, guard=guard)
        trace_path = pathlib.Path(directory) / "trace.jsonl"
        if trace_path.exists():
            service.trace = load_trace(trace_path,
                                       max_records=trace_limit)
        return service

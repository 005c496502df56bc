"""Request-level fault injection and the resilient-serving vocabulary.

- :class:`FaultPlan` / :class:`OutageWindow` — declarative fault
  intensities attached to an
  :class:`~repro.env.environment.EdgeCloudEnvironment`; an outage
  covers an attempt when :meth:`OutageWindow.covers` holds at the
  attempt's start (a pure function of the plan and the clock);
- :class:`FaultInjector` / :class:`FailedAttempt` — the runtime that
  kills remote attempts and bills the energy they burned; assigning
  ``env.faults = plan`` builds the environment's injector;
- :class:`CircuitBreaker` — per-remote-target failure masking;
- :class:`ResiliencePolicy` — the serving-path knobs consumed by
  :class:`~repro.core.service.AutoScaleService`.

See ``docs/robustness.md`` for the fault taxonomy and the breaker state
machine.
"""

from repro.faults.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.faults.failure import (
    FailedAttempt,
    FaultInjector,
    FaultKind,
    FaultStats,
    truncate_attempt,
)
from repro.faults.plan import FaultPlan, OutageWindow
from repro.faults.resilience import ResiliencePolicy

__all__ = [
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "FailedAttempt",
    "FaultInjector",
    "FaultKind",
    "FaultStats",
    "truncate_attempt",
    "FaultPlan",
    "OutageWindow",
    "ResiliencePolicy",
]

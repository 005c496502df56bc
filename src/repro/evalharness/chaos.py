"""Chaos evaluation: serving quality under injected request-level faults.

The paper's evaluation varies *degradation* (signal, contention); this
driver varies *failure*.  A :func:`chaos_sweep` serves the same request
stream through four schedulers at increasing fault intensity:

- ``resilient`` — AutoScale behind the full
  :class:`~repro.faults.ResiliencePolicy` (deadline, retries, breakers,
  local degradation);
- ``naive`` — the same engine, single-attempt serving (failures surface
  to the caller);
- ``static_remote`` — the nominally best remote target, always;
- ``static_local`` — the nominally best local target, always (immune to
  the fault plan, but pays local energy/latency for every request).

Each episode reports the trace summary (availability, QoS violations,
energy, retries, degraded share) plus the environment's fault ledger, so
tests can assert the headline property — resilience strictly dominates
naive serving on availability and QoS under every non-empty fault plan —
and the energy-conservation property (every billed dead-attempt
millijoule appears in the trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.common import ConfigError
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import UseCase
from repro.core.tracing import TraceRecorder
from repro.faults import FaultPlan, OutageWindow, ResiliencePolicy
from repro.hardware.devices import mi8pro
from repro.models.zoo import build_network

__all__ = ["ChaosLevel", "DEFAULT_LEVELS", "chaos_episode", "chaos_sweep"]

#: The schedulers an episode can run (see module docstring).
_SCHEDULERS = ("resilient", "naive", "static_remote", "static_local")


@dataclass(frozen=True)
class ChaosLevel:
    """One named fault intensity of a sweep."""

    name: str
    plan: FaultPlan

    def __post_init__(self):
        if not self.name:
            raise ConfigError("chaos level needs a name")


DEFAULT_LEVELS: Tuple[ChaosLevel, ...] = (
    ChaosLevel("calm", FaultPlan.none()),
    ChaosLevel("mild", FaultPlan(loss_scale=1.0, abort_prob=0.05)),
    ChaosLevel("rough", FaultPlan(
        loss_scale=1.0, abort_prob=0.15, straggler_prob=0.1,
    )),
    ChaosLevel("hostile", FaultPlan(
        loss_scale=1.0, abort_prob=0.3, straggler_prob=0.2,
        outages=(OutageWindow("cloud", start_ms=5_000.0,
                              duration_ms=5_000.0, period_ms=20_000.0),),
    )),
)


def _build_use_case(network_name, qos_ms):
    return UseCase(name=f"chaos-{network_name}",
                   network=build_network(network_name), qos_ms=qos_ms)


def _static_target(env, use_case, remote):
    """The nominally best (remote or local) target at episode start."""
    observation = env.observe()
    space = env.action_space
    indices = np.flatnonzero(~space.local if remote else space.local)
    if not indices.size:
        raise ConfigError(
            f"no {'remote' if remote else 'local'} targets to serve from"
        )
    best = env.estimate_all(use_case.network, observation) \
        .argbest(use_case, indices=indices)
    if best is None:
        raise ConfigError("no accuracy-feasible static target")
    return space.target(best)


def _serve_static(env, use_case, remote, num_requests):
    trace = TraceRecorder()
    target = _static_target(env, use_case, remote)
    for _ in range(num_requests):
        result = env.execute(use_case.network, target)
        trace.record_result(result, use_case, at_ms=env.clock.now_ms)
    return trace


def _serve_autoscale(env, use_case, resilience, num_requests, seed):
    # Local import: repro.core.service itself imports evalharness (the
    # tracer), so a module-level import here would be circular.
    from repro.core.service import AutoScaleService
    service = AutoScaleService(env, seed=seed, resilience=resilience)
    service.register(use_case)
    for _ in range(num_requests):
        service.handle(use_case.name)
    return service.trace


def chaos_episode(scheduler, plan, device=None, network_name="resnet_50",
                  qos_ms=200.0, num_requests=150, seed=0):
    """Serve one fault-injected episode; returns a result-row dict.

    The row combines the trace summary with the environment's fault
    ledger (``fault_*`` keys), so billed dead-attempt energy can be
    checked against the trace's accounting.
    """
    if scheduler not in _SCHEDULERS:
        raise ConfigError(
            f"unknown chaos scheduler {scheduler!r}; legal: {_SCHEDULERS}"
        )
    if num_requests < 1:
        raise ConfigError("num_requests must be >= 1")
    env = EdgeCloudEnvironment(device if device is not None else mi8pro(),
                               seed=seed, faults=plan)
    use_case = _build_use_case(network_name, qos_ms)
    if scheduler == "resilient":
        trace = _serve_autoscale(env, use_case, ResiliencePolicy(),
                                 num_requests, seed)
    elif scheduler == "naive":
        trace = _serve_autoscale(env, use_case,
                                 ResiliencePolicy.disabled(),
                                 num_requests, seed)
    else:
        trace = _serve_static(env, use_case,
                              scheduler == "static_remote", num_requests)
    row = {"scheduler": scheduler}
    row.update(trace.summary())
    stats = env.fault_stats
    row["fault_attempts"] = stats.attempts
    row["fault_failures"] = stats.total_failures
    row["fault_billed_energy_mj"] = stats.billed_energy_mj
    return row


def chaos_sweep(levels=None, schedulers=_SCHEDULERS, device=None,
                network_name="resnet_50", qos_ms=200.0, num_requests=150,
                seed=0):
    """Serve every (level, scheduler) pair; returns rows for reporting.

    Every episode gets a fresh environment built from the same seed, so
    schedulers face identically distributed (not identical — their
    decisions steer the stream) conditions at each level.
    """
    if levels is None:
        levels = DEFAULT_LEVELS
    rows = []
    for level in levels:
        for scheduler in schedulers:
            row = chaos_episode(
                scheduler, level.plan, device=device,
                network_name=network_name, qos_ms=qos_ms,
                num_requests=num_requests, seed=seed,
            )
            row["level"] = level.name
            rows.append(row)
    return rows

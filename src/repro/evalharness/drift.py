"""Drift evaluation: guarded vs unguarded serving under mid-run shift.

The chaos driver varies *failure*, the overload driver varies *load*;
this driver varies the *world itself* mid-episode, which is exactly the
regime the policy guard (:mod:`repro.guard`) exists for.  Each episode
warms an engine closed-loop under the base scenario, then replays a
seeded open-loop arrival stream with learning still on — and at
``drift_at_ms`` a typed ``TIMER`` event on the :mod:`repro.sim` heap
mutates the environment underneath the policy:

- ``stationary`` — nothing changes (the false-alarm control);
- ``rssi_shift`` — the strong Wi-Fi of S1 collapses to S4's weak
  signal, so every learned remote preference goes stale;
- ``corunner_flip`` — a CPU-intensive co-runner (S2) appears, shifting
  requests into state buckets the table never trained under;
- ``cloud_slowdown`` — a remote straggler storm (an unmodeled fault-
  plan change: the nominal cost model keeps predicting the old remote
  latency, so residuals — not states — carry the signal).

Scenarios compose with the chaos fault plans (``plan=``); the slowdown
merges into whatever plan is already active.

The headline properties, pinned by tests: guarded serving strictly
dominates unguarded on post-drift QoS violations in every drifted
scenario, the guard never fires on ``stationary``, and with the guard
disabled the episode is bit-identical to an unguarded one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.common import ConfigError, UnknownKeyError, make_rng
from repro.core.tracing import TraceRecorder
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import UseCase
from repro.faults.plan import FaultPlan
from repro.guard import GuardConfig, PolicyGuard
from repro.hardware.devices import mi8pro
from repro.models.zoo import build_network
from repro.serving.arrivals import PoissonArrivals
from repro.serving.pipeline import ServingConfig, ServingPipeline
from repro.sim.events import EventKind

__all__ = [
    "DriftScenario",
    "DRIFT_SCENARIOS",
    "build_drift_scenario",
    "drift_episode",
    "drift_sweep",
]


@dataclass(frozen=True)
class DriftScenario:
    """One named mid-episode world shift.

    ``shifted_scenario`` (a Table-IV id) swaps the environment scenario
    at drift time; ``straggler_prob``/``straggler_factor`` > defaults
    merge a remote straggler storm into the active fault plan.  A
    scenario may do either, both, or neither (``stationary``).
    """

    name: str
    description: str
    base_scenario: str = "S1"
    shifted_scenario: str = ""
    straggler_prob: float = 0.0
    straggler_factor: float = 1.0

    def __post_init__(self):
        if not self.name:
            raise ConfigError("drift scenario needs a name")
        if not 0.0 <= self.straggler_prob <= 1.0:
            raise ConfigError(
                f"straggler_prob outside [0, 1]: {self.straggler_prob}"
            )
        if self.straggler_factor < 1.0:
            raise ConfigError(
                f"straggler_factor must be >= 1, got "
                f"{self.straggler_factor}"
            )

    @property
    def drifts(self):
        """Whether anything actually changes at drift time."""
        return bool(self.shifted_scenario) or self.straggler_prob > 0


DRIFT_SCENARIOS: Dict[str, DriftScenario] = {
    "stationary": DriftScenario(
        "stationary", "no drift (false-alarm control)"),
    "rssi_shift": DriftScenario(
        "rssi_shift", "strong Wi-Fi collapses to S4's weak signal",
        shifted_scenario="S4"),
    "corunner_flip": DriftScenario(
        "corunner_flip", "a CPU-intensive co-runner (S2) appears",
        shifted_scenario="S2"),
    "cloud_slowdown": DriftScenario(
        "cloud_slowdown", "remote straggler storm (unmodeled)",
        straggler_prob=0.9, straggler_factor=6.0),
}


def build_drift_scenario(name):
    """Look up a drift scenario by name."""
    try:
        return DRIFT_SCENARIOS[name]
    except KeyError:
        raise UnknownKeyError(
            f"unknown drift scenario {name!r}; "
            f"choose from {tuple(DRIFT_SCENARIOS)}"
        ) from None


def _merge_slowdown(base_plan, scenario):
    """Merge the scenario's straggler storm into an active fault plan."""
    storm = FaultPlan(straggler_prob=scenario.straggler_prob,
                      straggler_factor=scenario.straggler_factor)
    if base_plan is None:
        return storm
    return replace(
        base_plan,
        straggler_prob=max(base_plan.straggler_prob,
                           scenario.straggler_prob),
        straggler_factor=max(base_plan.straggler_factor,
                             scenario.straggler_factor),
    )


def drift_episode(scenario, guarded, plan=None, device=None,
                  network_name="resnet_50", qos_ms=200.0,
                  accuracy_target=70.0, arrivals_per_s=5.0,
                  duration_ms=60_000.0, drift_at_ms=20_000.0,
                  warmup_requests=400, seed=0, guard_config=None):
    """Serve one drift episode; returns a result-row dict.

    The engine warms closed-loop under the base scenario, then the
    arrival stream replays open-loop through the full serving pipeline
    with **learning still on** — re-adaptation under drift is the whole
    point.  ``guarded`` arms the policy guard (``guard_config`` or the
    defaults); unguarded runs the identical episode with the inert
    guard.  The row combines the serving-phase trace summary with
    post-drift violation counts and the pipeline's health ledgers.
    """
    if isinstance(scenario, str):
        scenario = build_drift_scenario(scenario)
    if duration_ms <= 0:
        raise ConfigError("duration_ms must be positive")
    if not 0 <= drift_at_ms < duration_ms:
        raise ConfigError(
            f"drift_at_ms must lie inside the episode, got "
            f"{drift_at_ms} of {duration_ms} ms"
        )
    if warmup_requests < 0:
        raise ConfigError("warmup_requests cannot be negative")
    env = EdgeCloudEnvironment(
        device if device is not None else mi8pro(),
        scenario=scenario.base_scenario, seed=seed, think_time_ms=0.0,
    )
    use_case = UseCase(name=f"drift-{network_name}",
                       network=build_network(network_name), qos_ms=qos_ms,
                       accuracy_target=accuracy_target)
    if guarded:
        guard = PolicyGuard(guard_config if guard_config is not None
                            else GuardConfig())
    else:
        guard = PolicyGuard(GuardConfig.disabled())
    # Local import: repro.core.service imports evalharness tooling, so a
    # module-level import here would be circular.
    from repro.core.service import AutoScaleService
    service = AutoScaleService(env, seed=seed, guard=guard)
    service.register(use_case)
    for _ in range(warmup_requests):
        service.handle(use_case.name)
    # Measure the serving phase only — but keep learning ON.
    service.trace = TraceRecorder(max_records=service.trace_limit)
    env.rewind_clock()
    if plan is not None:
        env.faults = plan

    def apply_drift(event):
        if scenario.shifted_scenario:
            env.scenario = scenario.shifted_scenario
        if scenario.straggler_prob > 0:
            env.faults = _merge_slowdown(env.faults, scenario)

    if scenario.drifts:
        # The shift is itself a typed timeline event: it fires between
        # requests wherever the clock lands, not at a request boundary
        # the harness hand-picks.
        env.kernel.schedule(drift_at_ms, EventKind.TIMER,
                            payload=f"drift:{scenario.name}",
                            callback=apply_drift)
    arrivals = PoissonArrivals(
        use_case.name, arrivals_per_s=arrivals_per_s,
    ).generate(duration_ms, make_rng(seed + 1))
    if not arrivals:
        raise ConfigError(
            f"no arrivals generated in {duration_ms} ms at "
            f"{arrivals_per_s}/s"
        )
    pipeline = ServingPipeline(service, ServingConfig())
    pipeline.serve(arrivals)
    records = service.trace.records
    post = [r for r in records if r.at_ms >= drift_at_ms]
    post_violations = sum(1 for r in post if not r.meets_qos)
    row = {
        "scenario": scenario.name,
        "guarded": bool(guarded),
        "offered": len(arrivals),
        "post_drift_requests": len(post),
        "post_drift_violations": post_violations,
        "post_drift_violation_pct": (
            post_violations / len(post) * 100.0 if post else 0.0
        ),
    }
    row.update(service.trace.summary())
    status = pipeline.status()
    row["guard"] = status["guard"]
    row["brownout_escalations"] = status["brownout_escalations"]
    row["sheds_by_reason"] = status["sheds"]["sheds"]
    row["faults"] = status.get("faults")
    return row


def drift_sweep(scenarios=None, plan=None, device=None,
                network_name="resnet_50", qos_ms=200.0,
                accuracy_target=70.0, arrivals_per_s=5.0,
                duration_ms=60_000.0, drift_at_ms=20_000.0,
                warmup_requests=400, seed=0, guard_config=None):
    """Run every scenario guarded and unguarded; returns result rows.

    Both arms of each scenario share the seed, so they face identical
    warmup trajectories, identical arrival streams, and an identical
    world up to the first guard intervention.
    """
    if scenarios is None:
        scenarios = tuple(DRIFT_SCENARIOS)
    rows = []
    for name in scenarios:
        for guarded in (False, True):
            rows.append(drift_episode(
                name, guarded, plan=plan, device=device,
                network_name=network_name, qos_ms=qos_ms,
                accuracy_target=accuracy_target,
                arrivals_per_s=arrivals_per_s,
                duration_ms=duration_ms, drift_at_ms=drift_at_ms,
                warmup_requests=warmup_requests, seed=seed,
                guard_config=guard_config,
            ))
    return rows

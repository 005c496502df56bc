"""The benchmark's four end-to-end workloads.

Each workload is split the way a user pays for it:

- ``make_inputs(seed, scale)`` builds the inputs (arrival streams, the
  campaign's seed list) from the workload seed with the harness's own
  RNG; the program only ever receives the generated inputs;
- ``setup(inputs)`` is construction plus warm-up, timed as ``setup_s``;
- ``measure(state)`` is the measured phase, timed as ``wall_s``;
- ``summarize(state, result)`` runs after the clock stops: it computes
  the outcome digest, the outcome metrics and the correctness checks.

Every call goes through public ``repro.*`` API without path knobs (no
``batched=``, ``vectorized=``, ``use_cache=``, ``cached=``, no direct
``BatchTrainer``), so the workloads keep running unchanged while later
changes fold those paths together.  Callables the tracer patches are
looked up on their module at call time (``runner.train_autoscale``),
never bound at import, so a traced run sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

import repro.evalharness.evaluation as evaluation
import repro.evalharness.runner as runner
from repro import (
    AutoScale,
    EdgeCloudEnvironment,
    FaultPlan,
    GuardConfig,
    OutageWindow,
    PolicyGuard,
    ResiliencePolicy,
    ServingConfig,
    ServingPipeline,
    UseCase,
    build_device,
    build_network,
    use_case_for,
)
from repro.core.service import AutoScaleService
from repro.core.tracing import TraceRecorder
from repro.models.zoo import NETWORK_NAMES
from repro.serving.arrivals import Arrival
from repro.sim.events import EventKind

__all__ = ["Scale", "SCALES", "Outcome", "Workload", "WORKLOADS"]

DEVICES = ("mi8pro", "galaxy_s10e", "moto_x_force")
STATIC_NETWORKS = ("mobilenet_v3", "inception_v1", "resnet_50")
DRIFT_NETWORKS = ("mobilenet_v3", "inception_v1")
STATIC_SCENARIOS = ("S1", "S2", "S3", "S4", "S5")
ALL_SCENARIOS = STATIC_SCENARIOS + ("D1", "D2", "D3", "D4")
SERVE_QOS_MS = 50.0


@dataclass(frozen=True)
class Scale:
    """Workload sizes; ``full`` is the benchmark, ``smoke`` its test."""

    serve_minutes: float
    static_warm_runs: int
    drift_warm_handles: int
    drift_at_minutes: float
    outage_period_s: float
    train_devices: tuple
    train_seeds_per_device: int
    train_runs: int
    fig_devices: tuple
    fig_networks: tuple
    fig_scenarios: tuple
    fig_config: tuple  # RunConfig(train_runs, adapt_runs, eval_runs)


SCALES = {
    "full": Scale(
        serve_minutes=60.0, static_warm_runs=100, drift_warm_handles=200,
        drift_at_minutes=20.0, outage_period_s=120.0,
        train_devices=DEVICES, train_seeds_per_device=4, train_runs=100,
        fig_devices=DEVICES, fig_networks=NETWORK_NAMES,
        fig_scenarios=STATIC_SCENARIOS, fig_config=(40, 120, 12),
    ),
    # About 50x less work per workload: the harness's own test.
    "smoke": Scale(
        serve_minutes=1.2, static_warm_runs=20, drift_warm_handles=20,
        drift_at_minutes=0.4, outage_period_s=30.0,
        train_devices=("mi8pro",), train_seeds_per_device=1, train_runs=20,
        fig_devices=("mi8pro",),
        fig_networks=("mobilenet_v3", "inception_v1", "resnet_50"),
        fig_scenarios=("S1", "S4"), fig_config=(8, 20, 4),
    ),
}


@dataclass
class Outcome:
    """What one measured phase produced, as the harness judges it.

    ``operations`` counts the inferences the workload asked for
    (requests offered, training steps, evaluation inferences); ``lost``
    counts those that came back with no outcome at all.  ``metrics`` are
    the simulated-quality numbers, ``checks`` the correctness verdicts.
    """

    digest: str
    operations: int
    lost: int
    metrics: Dict[str, float]
    checks: Dict[str, bool]


@dataclass
class State:
    """A set-up workload: the objects it holds and its inputs."""

    objects: List[object]
    data: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable
    setup: Callable
    measure: Callable
    summarize: Callable


# ----------------------------------------------------------------------
# Inputs: open-loop arrival streams drawn with the harness's own RNG
# ----------------------------------------------------------------------

def _streams(seed, count):
    """One independent generator per service, all derived from ``seed``."""
    children = np.random.SeedSequence([seed, 7]).spawn(count)
    return [np.random.default_rng(child) for child in children]


def _poisson_ms(rng, per_s, start_ms, end_ms):
    """Poisson arrival times in ``[start_ms, end_ms)``."""
    times = []
    now_ms = start_ms
    mean_gap_ms = 1000.0 / per_s
    while True:
        gaps = rng.exponential(mean_gap_ms, 256)
        for gap in gaps:
            now_ms += float(gap)
            if now_ms >= end_ms:
                return times
            times.append(now_ms)


def _mmpp_ms(rng, calm_per_s, burst_per_s, calm_dwell_ms, burst_dwell_ms,
             duration_ms):
    """Two-phase Markov-modulated Poisson arrivals (calm, then burst)."""
    times = []
    start_ms = 0.0
    bursting = False
    while start_ms < duration_ms:
        dwell = burst_dwell_ms if bursting else calm_dwell_ms
        end_ms = min(duration_ms, start_ms + float(rng.exponential(dwell)))
        per_s = burst_per_s if bursting else calm_per_s
        times.extend(_poisson_ms(rng, per_s, start_ms, end_ms))
        start_ms = end_ms
        bursting = not bursting
    return times


def _arrivals(names, times_per_name, per_service):
    """The first ``per_service`` arrivals of each stream, merged.

    A fixed count keeps the work of a run the same for every seed; the
    seed moves only when the requests arrive.
    """
    arrivals = [Arrival(at_ms, name)
                for name, times in zip(names, times_per_name)
                for at_ms in times[:per_service]]
    if len(arrivals) != per_service * len(names):
        raise ValueError("an arrival stream ended early")
    arrivals.sort(key=lambda arrival: (arrival.at_ms, arrival.name))
    return arrivals


# ----------------------------------------------------------------------
# Shared outcome helpers
# ----------------------------------------------------------------------

def _hash_floats(hasher, values):
    hasher.update(struct.pack(f"<{len(values)}d", *values))


def _hash_engine(hasher, engine):
    hasher.update(engine.qtable.values.tobytes())
    hasher.update(engine.qtable.visits.tobytes())
    _hash_floats(hasher, [engine.environment.clock.now_ms])


def _serving_outcome(state, pipeline, outcomes):
    """Digest, metrics and checks shared by both serving workloads."""
    service = state.data["service"]
    offered = len(state.data["arrivals"])
    records = service.trace.records
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(repr((record.use_case, record.target_key,
                            record.status, record.tier, record.reason,
                            record.retries)).encode())
        _hash_floats(hasher, [record.at_ms, record.latency_ms,
                              record.energy_mj, record.failed_energy_mj,
                              record.queue_delay_ms])
    _hash_engine(hasher, service.engine)

    summary = service.trace.summary()
    delivered = [record.queue_delay_ms + record.latency_ms
                 for record in records if record.delivered]
    sheds = pipeline.shed_stats
    refused = sum(1 for served in outcomes if not served.delivered)
    energies_ok = all(math.isfinite(record.energy_mj)
                      and record.energy_mj >= 0 for record in records)
    metrics = {
        "qos_violation_pct": summary["qos_violation_pct"],
        "energy_per_delivered_mj": summary["energy_per_delivered_mj"],
        "latency_ms_p50": float(np.percentile(delivered, 50)),
        "latency_ms_p99": float(np.percentile(delivered, 99)),
        "failed_pct": refused / offered * 100.0,
    }
    checks = {
        "one_outcome_per_arrival": len(outcomes) == offered,
        "one_trace_row_per_arrival": len(records) == offered,
        "shed_ledger_balances":
            sheds.offered == offered
            and sheds.served + sheds.total_sheds == offered,
        "energies_finite": energies_ok,
        "something_delivered": bool(delivered),
        # The default 10k rolling window would silently cut the summary.
        "trace_limit_covers_offered": service.trace_limit >= offered,
    }
    return Outcome(
        digest=hasher.hexdigest(), operations=offered,
        lost=offered - len(outcomes), metrics=metrics, checks=checks,
    )


def _service(env, seed, offered, **kwargs):
    # The rolling trace window must hold every request of the measured
    # phase, or the summary would silently cover only its tail.
    return AutoScaleService(env, seed=seed, trace_limit=max(offered, 1),
                            **kwargs)


def _serve(state):
    pipeline = ServingPipeline(state.data["service"], ServingConfig())
    return pipeline, pipeline.serve(state.data["arrivals"])


# ----------------------------------------------------------------------
# serve_static: frozen tables on the static fast path
# ----------------------------------------------------------------------

def _static_inputs(seed, scale):
    # Calm 2/s for 10 s, bursts of 20/s for 2 s: 5/s on average.
    per_service = round(5.0 * 60.0 * scale.serve_minutes)
    horizon_ms = 2 * scale.serve_minutes * 60_000.0
    times = [_mmpp_ms(rng, 2.0, 20.0, 10_000.0, 2_000.0, horizon_ms)
             for rng in _streams(seed, len(STATIC_NETWORKS))]
    return {"seed": seed, "scale": scale,
            "arrivals": _arrivals(STATIC_NETWORKS, times, per_service)}


def _static_setup(inputs):
    seed, scale = inputs["seed"], inputs["scale"]
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                               seed=seed, think_time_ms=0.0)
    engine = AutoScale(env, seed=seed)
    service = _service(env, seed, len(inputs["arrivals"]), engine=engine)
    cases = [UseCase(name=name, network=build_network(name),
                     qos_ms=SERVE_QOS_MS) for name in STATIC_NETWORKS]
    for case in cases:
        service.register(case)
    runner.train_autoscale(engine, cases, ("S1",), scale.static_warm_runs)
    service.set_learning(False)
    env.rewind_clock()
    return State([service], {"service": service,
                             "arrivals": inputs["arrivals"],
                             "qtable": engine.qtable.values.tobytes()})


def _static_summarize(state, result):
    pipeline, outcomes = result
    outcome = _serving_outcome(state, pipeline, outcomes)
    engine = state.data["service"].engine
    outcome.checks["frozen_table_unchanged"] = (
        engine.qtable.values.tobytes() == state.data["qtable"])
    outcome.checks["no_failures_without_faults"] = not any(
        served.failed for served in outcomes)
    return outcome


# ----------------------------------------------------------------------
# serve_drift_chaos: every slow path at once
# ----------------------------------------------------------------------

def _drift_inputs(seed, scale):
    per_service = round(3.0 * 60.0 * scale.serve_minutes)
    horizon_ms = 2 * scale.serve_minutes * 60_000.0
    times = [_poisson_ms(rng, 3.0, 0.0, horizon_ms)
             for rng in _streams(seed, len(DRIFT_NETWORKS))]
    return {"seed": seed, "scale": scale,
            "arrivals": _arrivals(DRIFT_NETWORKS, times, per_service)}


def _drift_setup(inputs):
    seed, scale = inputs["seed"], inputs["scale"]
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                               seed=seed, think_time_ms=0.0)
    service = _service(env, seed, len(inputs["arrivals"]),
                       resilience=ResiliencePolicy(),
                       guard=PolicyGuard(GuardConfig()))
    for name in DRIFT_NETWORKS:
        service.register(UseCase(name=name, network=build_network(name),
                                 qos_ms=SERVE_QOS_MS))
    for _ in range(scale.drift_warm_handles):
        for name in DRIFT_NETWORKS:
            service.handle(name)
    # The measured phase starts on a fresh timeline with an empty trace,
    # the chaos plan attached and the drift armed as a kernel TIMER.
    service.trace = TraceRecorder(max_records=service.trace_limit)
    env.rewind_clock()
    period_ms = scale.outage_period_s * 1000.0
    env.faults = FaultPlan(
        loss_scale=1.0, abort_prob=0.05, straggler_prob=0.05,
        outages=(OutageWindow("cloud", start_ms=period_ms,
                              duration_ms=10_000.0, period_ms=period_ms),),
    )

    def drift(event):
        env.scenario = "D4"

    env.kernel.schedule(scale.drift_at_minutes * 60_000.0, EventKind.TIMER,
                        payload="drift:D4", callback=drift)
    return State([service], {"service": service,
                             "arrivals": inputs["arrivals"]})


def _drift_summarize(state, result):
    pipeline, outcomes = result
    outcome = _serving_outcome(state, pipeline, outcomes)
    service = state.data["service"]
    outcome.checks["drifted_to_d4"] = (
        service.environment.scenario.name == "D4")
    outcome.checks["guard_ticked"] = service.guard.ticks > 0
    return outcome


# ----------------------------------------------------------------------
# train_campaign: the batched trainer over the full protocol
# ----------------------------------------------------------------------

def _train_inputs(seed, scale):
    seeds = [(device, seed + offset) for device in scale.train_devices
             for offset in range(scale.train_seeds_per_device)]
    return {"scale": scale, "engines": seeds}


def _train_setup(inputs):
    engines = []
    for device, seed in inputs["engines"]:
        env = EdgeCloudEnvironment(build_device(device), scenario="S1",
                                   seed=seed)
        engines.append(AutoScale(env, seed=seed))
    cases = [use_case_for(build_network(name)) for name in NETWORK_NAMES]
    return State(list(engines), {"engines": engines, "cases": cases,
                                 "scale": inputs["scale"]})


def _train_measure(state):
    scale = state.data["scale"]
    for engine in state.data["engines"]:
        runner.train_autoscale(engine, state.data["cases"], ALL_SCENARIOS,
                               scale.train_runs)
    return None


def _train_summarize(state, result):
    scale = state.data["scale"]
    cases = state.data["cases"]
    per_engine = len(ALL_SCENARIOS) * len(cases) * scale.train_runs
    # train_autoscale walks scenario-major, then use case, then runs.
    qos_sequence = [case.qos_ms for _ in ALL_SCENARIOS for case in cases
                    for _ in range(scale.train_runs)]
    hasher = hashlib.sha256()
    violations = 0
    latencies, energies = [], []
    finite = True
    for engine in state.data["engines"]:
        _hash_engine(hasher, engine)
        history = list(engine.history)[-per_engine:]
        for step, qos_ms in zip(history, qos_sequence):
            latencies.append(step.result.latency_ms)
            energies.append(step.result.energy_mj)
            violations += step.result.latency_ms > qos_ms
        finite = finite and bool(np.isfinite(engine.qtable.values).all())
    operations = per_engine * len(state.data["engines"])
    steps = len(latencies)
    return Outcome(
        digest=hasher.hexdigest(), operations=operations,
        lost=operations - steps,
        metrics={
            "qos_violation_pct": violations / max(steps, 1) * 100.0,
            "energy_per_delivered_mj": float(np.mean(energies)),
            "latency_ms_p50": float(np.percentile(latencies, 50)),
            "latency_ms_p99": float(np.percentile(latencies, 99)),
            "failed_pct": 0.0,
        },
        checks={
            "every_step_recorded": all(
                engine.total_steps == per_engine
                for engine in state.data["engines"]),
            "qtables_finite": finite,
        },
    )


# ----------------------------------------------------------------------
# fig09_loo: the paper's headline experiment
# ----------------------------------------------------------------------

def _fig_inputs(seed, scale):
    return {"seed": seed, "scale": scale}


def _fig_setup(inputs):
    # The figure driver builds everything itself: set-up is the import.
    return State([], dict(inputs))


def _fig_measure(state):
    scale = state.data["scale"]
    return evaluation.fig9_main_results(
        device_names=scale.fig_devices, network_names=scale.fig_networks,
        scenarios=scale.fig_scenarios,
        config=runner.RunConfig(*scale.fig_config), seed=state.data["seed"],
    )


def _fig_summarize(state, result):
    scale = state.data["scale"]
    per_device = result["per_device"]
    ppw_vs_opt, violations = [], []
    schedulers = 0
    sane = True
    for summary in per_device.values():
        by_name = {row["scheduler"]: row for row in summary}
        schedulers += len(summary)
        ppw_vs_opt.append(by_name["autoscale"]["ppw_norm"]
                          / by_name["opt"]["ppw_norm"] * 100.0)
        violations.append(by_name["autoscale"]["qos_violation_pct"])
        sane = sane and all(
            math.isfinite(row["ppw_norm"]) and row["ppw_norm"] > 0
            and 0.0 <= row["qos_violation_pct"] <= 100.0 for row in summary)
        # The claim the figure exists for: AutoScale beats the mobile
        # CPU baseline it is normalized against.
        sane = sane and (by_name["autoscale"]["ppw_norm"]
                         > by_name["edge_cpu_fp32"]["ppw_norm"])
    hasher = hashlib.sha256(
        json.dumps(per_device, sort_keys=True).encode())
    eval_runs = scale.fig_config[2]
    operations = (schedulers * len(scale.fig_scenarios)
                  * len(scale.fig_networks) * eval_runs)
    return Outcome(
        digest=hasher.hexdigest(), operations=operations, lost=0,
        metrics={
            "qos_violation_pct": float(np.mean(violations)),
            "ppw_vs_opt_pct": float(np.mean(ppw_vs_opt)),
        },
        checks={
            "every_device_reported":
                sorted(per_device) == sorted(scale.fig_devices),
            "results_sane": sane,
        },
    )


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("serve_static", _static_inputs, _static_setup, _serve,
                 _static_summarize),
        Workload("serve_drift_chaos", _drift_inputs, _drift_setup, _serve,
                 _drift_summarize),
        Workload("train_campaign", _train_inputs, _train_setup,
                 _train_measure, _train_summarize),
        Workload("fig09_loo", _fig_inputs, _fig_setup, _fig_measure,
                 _fig_summarize),
    )
}

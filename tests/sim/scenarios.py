"""Seeded end-to-end scenarios whose observables are pinned as fixtures.

The event-kernel migration (repro.sim) must be *invisible*: every
single-device observable — trace records, Q-tables, energy/fault/shed
ledgers, breaker states, the final virtual-clock reading — has to come
out bit-identical before and after the timeline producers move onto the
event heap.  These scenario runners capture exactly those observables as
JSON-serializable dicts; ``test_parity_pins.py`` asserts fresh runs
equal the committed fixtures byte-for-byte.

Regenerate fixtures (only when an *intentional* behaviour change lands),
all of them or the named ones:

    PYTHONPATH=src:. python -m tests.sim.scenarios [NAME ...]

Floats round-trip through JSON exactly (``json.dumps(float)`` emits
``repr``, which reparses to the identical float64), so fixture equality
is bit-identity, not approximate equality.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys
from dataclasses import asdict

from repro.common import make_rng
from repro.core.engine import AutoScale
from repro.core.service import AutoScaleService
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.evalharness.runner import adapt_engine, train_autoscale
from repro.faults.plan import FaultPlan, OutageWindow
from repro.faults.resilience import ResiliencePolicy
from repro.hardware.devices import build_device
from repro.models.zoo import load_zoo
from repro.serving.arrivals import (
    MarkovModulatedArrivals,
    PoissonArrivals,
    TraceArrivals,
    merge_arrivals,
)
from repro.serving.pipeline import ServingConfig, ServingPipeline

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"


def _qtable_digest(engine):
    """A bit-exact fingerprint of the learned table."""
    values = engine.qtable.values
    return {
        "sha256": hashlib.sha256(values.tobytes()).hexdigest(),
        "shape": list(values.shape),
        "sum": float(values.sum()),
    }


def _outcome_row(served):
    outcome = served.outcome
    return {
        "at_ms": served.arrival.at_ms,
        "name": served.arrival.name,
        "queue_delay_ms": served.queue_delay_ms,
        "tier": served.tier,
        "shed": bool(served.shed),
        "failed": bool(served.failed),
        "latency_ms": outcome.latency_ms,
        "energy_mj": outcome.energy_mj,
        "target_key": outcome.target_key,
    }


def _snapshot(service, pipeline=None, outcomes=None):
    env = service.environment
    observables = {
        "clock_now_ms": env.clock.now_ms,
        "trace": [asdict(record) for record in service.trace.records],
        "qtable": _qtable_digest(service.engine),
        "breakers": service.breaker_states(),
        "fault_stats": env.fault_stats.as_dict(),
    }
    if pipeline is not None:
        observables["pipeline_status"] = pipeline.status()
    if outcomes is not None:
        observables["outcomes"] = [_outcome_row(o) for o in outcomes]
    return observables


def _service(seed, think_time_ms=0.0, faults=None, resilience=None):
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                               seed=seed, think_time_ms=think_time_ms,
                               faults=faults)
    return AutoScaleService(env, seed=seed, resilience=resilience)


def pipelined_overload():
    """Bursty MMPP traffic through the full shed+brownout pipeline."""
    zoo = load_zoo()
    case = use_case_for(zoo["resnet_50"])
    arrivals = MarkovModulatedArrivals(
        case.name, calm_per_s=2.0, burst_per_s=30.0,
        calm_dwell_ms=8_000.0, burst_dwell_ms=3_000.0,
    ).generate(45_000.0, make_rng(2024))
    service = _service(101)
    service.register(case)
    pipeline = ServingPipeline(service, ServingConfig())
    outcomes = pipeline.serve(arrivals)
    return _snapshot(service, pipeline, outcomes)


def resilient_chaos():
    """Retries, breakers, and a periodic cloud outage under faults."""
    zoo = load_zoo()
    case = use_case_for(zoo["mobilenet_v3"])
    plan = FaultPlan(
        loss_scale=1.0,
        abort_prob=0.05,
        straggler_prob=0.1,
        outages=(OutageWindow("cloud", start_ms=5_000.0,
                              duration_ms=5_000.0, period_ms=20_000.0),),
    )
    service = _service(202, faults=plan, resilience=ResiliencePolicy())
    service.register(case)
    arrivals = PoissonArrivals(case.name, arrivals_per_s=4.0) \
        .generate(40_000.0, make_rng(7))
    pipeline = ServingPipeline(service, ServingConfig())
    outcomes = pipeline.serve(arrivals)
    return _snapshot(service, pipeline, outcomes)


def direct_closed_loop():
    """The disabled pipeline: the paper's closed loop, bit-for-bit."""
    zoo = load_zoo()
    case = use_case_for(zoo["mobilebert"])
    service = _service(303, think_time_ms=150.0)
    service.register(case)
    arrivals = PoissonArrivals(case.name, arrivals_per_s=3.0) \
        .generate(30_000.0, make_rng(17))
    pipeline = ServingPipeline(service, ServingConfig.disabled())
    outcomes = pipeline.serve(arrivals)
    return _snapshot(service, pipeline, outcomes)


def merged_streams():
    """Three services, three arrival processes, one merged timeline."""
    zoo = load_zoo()
    cases = [use_case_for(zoo["mobilenet_v3"]),
             use_case_for(zoo["resnet_50"]),
             use_case_for(zoo["mobilebert"])]
    service = _service(404)
    for case in cases:
        service.register(case)
    streams = [
        PoissonArrivals(cases[0].name, arrivals_per_s=3.0)
        .generate(25_000.0, make_rng(41)),
        MarkovModulatedArrivals(
            cases[1].name, calm_per_s=1.0, burst_per_s=20.0,
            calm_dwell_ms=6_000.0, burst_dwell_ms=2_000.0,
        ).generate(25_000.0, make_rng(42)),
        TraceArrivals(tuple(
            (250.0 * index, cases[2].name) for index in range(60)
        )).generate(25_000.0),
    ]
    arrivals = merge_arrivals(*streams)
    pipeline = ServingPipeline(service, ServingConfig())
    outcomes = pipeline.serve(arrivals)
    return _snapshot(service, pipeline, outcomes)


def midrun_fault_attach():
    """A fault plan attached while the clock is already past zero.

    Pins the phase arithmetic a mid-time outage attach must honour: the
    periodic window's schedule is anchored at its ``start_ms``, not at
    the attach instant.
    """
    zoo = load_zoo()
    case = use_case_for(zoo["mobilenet_v3"])
    service = _service(505, resilience=ResiliencePolicy())
    service.register(case)
    arrivals = PoissonArrivals(case.name, arrivals_per_s=4.0) \
        .generate(12_000.0, make_rng(51))
    first = ServingPipeline(service, ServingConfig()).serve(arrivals)
    # Attach faults mid-run: a periodic outage whose anchor lies in the
    # past and whose next occurrence lies ahead of the current clock.
    service.environment.faults = FaultPlan(
        loss_scale=0.5,
        outages=(OutageWindow("cloud", start_ms=2_000.0,
                              duration_ms=4_000.0, period_ms=15_000.0),),
    )
    resume_ms = service.environment.clock.now_ms
    late = [a for a in PoissonArrivals(case.name, arrivals_per_s=4.0)
            .generate(20_000.0, make_rng(52)) if a.at_ms > resume_ms]
    pipeline = ServingPipeline(service, ServingConfig())
    second = pipeline.serve(late)
    return _snapshot(service, pipeline, first + second)


def episode_rewind():
    """Two episodes split by ``rewind_clock``; faults stay armed.

    Pins that rewinding the virtual clock re-arms time-anchored state
    (the outage schedule must cover its windows again in episode two).
    """
    zoo = load_zoo()
    case = use_case_for(zoo["mobilenet_v3"])
    plan = FaultPlan(
        outages=(OutageWindow("cloud", start_ms=1_000.0,
                              duration_ms=3_000.0),),
    )
    service = _service(606, faults=plan, resilience=ResiliencePolicy())
    service.register(case)
    arrivals = PoissonArrivals(case.name, arrivals_per_s=5.0) \
        .generate(8_000.0, make_rng(61))
    first = ServingPipeline(service, ServingConfig()).serve(arrivals)
    service.environment.rewind_clock()
    pipeline = ServingPipeline(service, ServingConfig())
    second = pipeline.serve(arrivals)
    return _snapshot(service, pipeline, first + second)


def outage_probe():
    """Remote executions at boundary-straddling probe times.

    The engine's learned policy rarely picks remote targets, so the
    pipelined scenarios barely touch the outage machinery.  This probe
    drives the *cloud* target directly at a grid of virtual times that
    straddle every interesting boundary of a periodic outage window —
    window start (inclusive), window end (exclusive), the second and
    third periodic occurrences, plus a mid-run attach and a rewind —
    pinning exactly the coverage semantics the event-driven schedule
    must reproduce.
    """
    zoo = load_zoo()
    case = use_case_for(zoo["mobilenet_v3"])
    plan = FaultPlan(
        outages=(OutageWindow("cloud", start_ms=2_000.0,
                              duration_ms=1_000.0, period_ms=10_000.0),),
    )
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                               seed=707, faults=plan)
    cloud = next(t for t in env.targets() if t.key == "cloud/gpu/fp32")

    def probe(times):
        rows = []
        for at_ms in times:
            env.advance_clock_to(at_ms)
            result = env.execute(case.network, cloud, env.observe())
            rows.append({
                "probe_ms": at_ms,
                "executed_at_ms": env.clock.now_ms - result.latency_ms,
                "failed": bool(result.failed),
                "latency_ms": result.latency_ms,
                "energy_mj": result.energy_mj,
                "target_key": result.target_key,
            })
        return rows

    episode_one = probe([
        0.0, 1_999.0, 2_000.0, 2_500.0, 2_999.9, 3_000.0, 3_500.0,
        11_999.0, 12_000.0, 12_999.9, 13_000.0, 22_000.0, 22_999.9,
    ])
    # Attach a *different* plan mid-run: its anchor is in the past, so
    # the next occurrence must come from phase arithmetic, not from the
    # attach time.
    env.faults = FaultPlan(
        outages=(OutageWindow("cloud", start_ms=1_000.0,
                              duration_ms=2_000.0, period_ms=8_000.0),),
    )
    attach = probe([25_000.0, 25_999.9, 27_000.0, 33_000.0, 34_999.9])
    env.rewind_clock()
    rewound = probe([0.0, 1_000.0, 2_999.9, 3_000.0, 9_000.0, 9_500.0])
    return {
        "episode_one": episode_one,
        "after_attach": attach,
        "after_rewind": rewound,
        "fault_stats": env.fault_stats.as_dict(),
        "clock_now_ms": env.clock.now_ms,
    }


def _training_protocol():
    """train_autoscale over S1, S4 and D3, then adapt, faults and freeze.

    Every phase goes through ``AutoScale.run``: training episodes on
    static and dynamic scenarios, an online adaptation that stops on
    convergence, a training episode under an active fault plan, and a
    frozen greedy episode.
    """
    zoo = load_zoo()
    cases = [use_case_for(zoo[name])
             for name in ("mobilenet_v3", "resnet_50", "mobilebert")]
    env = EdgeCloudEnvironment(build_device("mi8pro"), seed=808)
    engine = AutoScale(env, seed=808)
    train_autoscale(engine, cases, ("S1", "S4", "D3"), 60)
    trained_converged_at = engine.convergence.converged_at
    env.scenario = "S1"
    env.rewind_clock()
    adapted_converged_at = adapt_engine(engine, cases[0], max_runs=60)
    env.faults = FaultPlan(abort_prob=0.1, straggler_prob=0.2)
    engine.run(cases[1], 40)
    env.faults = FaultPlan.none()
    engine.freeze()
    engine.run(cases[2], 30)
    history = [
        (step.state, step.action, step.target_key, step.reward,
         step.explored, step.q_delta, step.result.latency_ms,
         step.result.energy_mj, bool(step.result.failed))
        for step in engine.history
    ]
    return {
        "qtable": _qtable_digest(engine),
        "visits_sha256": hashlib.sha256(
            engine.qtable.visits.tobytes()).hexdigest(),
        "visits_sum": int(engine.qtable.visits.sum()),
        "update_count": engine.qtable.update_count,
        "trained_converged_at": trained_converged_at,
        "adapted_converged_at": adapted_converged_at,
        "history_sha256": hashlib.sha256(
            repr(history).encode()).hexdigest(),
        "total_steps": engine.total_steps,
        "clock_now_ms": env.clock.now_ms,
        "env_rng_state": env.rng.bit_generator.state,
        "engine_rng_state": engine.rng.bit_generator.state,
    }


def training_campaign():
    """The training protocol with runtime contracts on, then off."""
    previous = os.environ.get("REPRO_CONTRACTS")
    observables = {}
    try:
        for mode, flag in (("contracts_on", "1"), ("contracts_off", "0")):
            os.environ["REPRO_CONTRACTS"] = flag
            observables[mode] = _training_protocol()
    finally:
        if previous is None:
            os.environ.pop("REPRO_CONTRACTS", None)
        else:
            os.environ["REPRO_CONTRACTS"] = previous
    return observables


SCENARIOS = {
    "pipelined_overload": pipelined_overload,
    "outage_probe": outage_probe,
    "resilient_chaos": resilient_chaos,
    "direct_closed_loop": direct_closed_loop,
    "merged_streams": merged_streams,
    "midrun_fault_attach": midrun_fault_attach,
    "episode_rewind": episode_rewind,
    "training_campaign": training_campaign,
}


def write_fixtures(names=()):
    """Write the fixtures of ``names`` (default: every scenario)."""
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for name in names or SCENARIOS:
        runner = SCENARIOS[name]
        path = FIXTURE_DIR / f"{name}.json"
        path.write_text(json.dumps(runner(), indent=2, sort_keys=True)
                        + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    write_fixtures(sys.argv[1:])

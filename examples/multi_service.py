#!/usr/bin/env python3
"""A day in the life: one engine scheduling several services at once.

AutoScale's state space keys on network characteristics, so a single
Q-table can serve every intelligent service on the phone.  This example
runs a realistic multi-service afternoon on a Galaxy S10e:

- a photo assistant (MobileNet v3) firing in bursts when the camera is up;
- an object-detection feature (SSD-MobileNet v2) on Poisson arrivals;
- a translation keyboard (MobileBERT) in short typing sessions;

under the D4 environment (co-running apps switching between a music
player and a web browser).  The trace recorder then reports where the
work ran, how often it migrated, and what the afternoon cost.

Run:  python examples/multi_service.py
"""

from repro import (
    AutoScale,
    EdgeCloudEnvironment,
    build_device,
    build_network,
    use_case_for,
)
from repro.core.tracing import TraceRecorder
from repro.env.workload import (
    MixedWorkload,
    PoissonWorkload,
    SessionWorkload,
    run_workload,
)

WARMUP_RUNS = 150
AFTERNOON_MS = 10 * 60 * 1000.0  # ten (virtual) minutes


def main():
    env = EdgeCloudEnvironment(build_device("galaxy_s10e"),
                               scenario="D4", seed=21)
    engine = AutoScale(env, seed=21)

    photo = use_case_for(build_network("mobilenet_v3"))
    detect = use_case_for(build_network("ssd_mobilenet_v2"))
    translate = use_case_for(build_network("mobilebert"))

    print("warming the shared Q-table up on all three services ...")
    for case in (photo, detect, translate):
        engine.run(case, WARMUP_RUNS)

    workload = MixedWorkload((
        SessionWorkload(photo, session_ms=8_000.0, idle_ms=45_000.0,
                        in_session_interval_ms=800.0),
        PoissonWorkload(detect, arrivals_per_s=0.2),
        SessionWorkload(translate, session_ms=12_000.0,
                        idle_ms=90_000.0,
                        in_session_interval_ms=2_500.0),
    ))

    recorder = TraceRecorder()
    env.clock.reset()

    # Wrap run_workload's stepping so every inference is traced.
    requests = workload.generate(AFTERNOON_MS, rng=engine.rng)
    print(f"running {len(requests)} inferences over "
          f"{AFTERNOON_MS / 60000:.0f} virtual minutes (scenario D4)\n")
    for request in requests:
        if request.at_ms > env.clock.now_ms:
            env.clock.advance(request.at_ms - env.clock.now_ms)
        step = engine.step(request.use_case)
        recorder.record_step(step, request.use_case,
                             at_ms=env.clock.now_ms)

    summary = recorder.summary()
    print(f"inferences        : {summary['num_inferences']}")
    print(f"total energy      : {summary['total_energy_mj'] / 1000:.2f} J")
    print(f"mean energy       : {summary['mean_energy_mj']:.1f} mJ")
    print(f"p95 latency       : {summary['p95_latency_ms']:.1f} ms")
    print(f"QoS violations    : {summary['qos_violation_pct']:.1f}%")
    print(f"target migrations : {len(recorder.migrations())}")
    print(f"estimator MAPE    : {recorder.estimator_mape_pct():.1f}%")
    print()
    print("decisions by location:")
    for location, share in recorder.decisions_by_location().items():
        print(f"  {location:10s} {share * 100:5.1f}%")
    print()
    print("per-service decision mix:")
    for case in (photo, detect, translate):
        keys = {}
        for record in recorder.records:
            if record.use_case == case.name:
                keys[record.target_key] = keys.get(record.target_key,
                                                   0) + 1
        top = sorted(keys.items(), key=lambda kv: -kv[1])[:2]
        rendered = ", ".join(f"{k} x{v}" for k, v in top)
        print(f"  {case.name:32s} {rendered}")


if __name__ == "__main__":
    main()

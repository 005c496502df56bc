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
work ran, how often it migrated, and what the afternoon cost.  The
services' request streams come from ``repro.serving.arrivals`` and are
served through :class:`~repro.core.service.AutoScaleService` on the
direct path (``ServingConfig.disabled()``).

Run:  python examples/multi_service.py
"""

from repro import (
    EdgeCloudEnvironment,
    MarkovModulatedArrivals,
    PoissonArrivals,
    ServingConfig,
    build_device,
    build_network,
    make_rng,
    use_case_for,
)
from repro.core.service import AutoScaleService
from repro.serving import merge_arrivals

WARMUP_RUNS = 150
AFTERNOON_MS = 10 * 60 * 1000.0  # ten (virtual) minutes


def main():
    env = EdgeCloudEnvironment(build_device("galaxy_s10e"),
                               scenario="D4", seed=21)
    service = AutoScaleService(env, seed=21)

    photo = use_case_for(build_network("mobilenet_v3"))
    detect = use_case_for(build_network("ssd_mobilenet_v2"))
    translate = use_case_for(build_network("mobilebert"))

    print("warming the shared Q-table up on all three services ...")
    for case in (photo, detect, translate):
        service.register(case)
        service.engine.run(case, WARMUP_RUNS)

    # Bursty services are calm/burst Markov-modulated streams: dense
    # requests while the camera is up or the user types, long gaps
    # between.
    streams = (
        MarkovModulatedArrivals(photo.name, calm_per_s=0.02,
                                burst_per_s=1.25, calm_dwell_ms=45_000.0,
                                burst_dwell_ms=8_000.0),
        PoissonArrivals(detect.name, arrivals_per_s=0.2),
        MarkovModulatedArrivals(translate.name, calm_per_s=0.01,
                                burst_per_s=0.4, calm_dwell_ms=90_000.0,
                                burst_dwell_ms=12_000.0),
    )
    rng = make_rng(21)
    arrivals = merge_arrivals(*(stream.generate(AFTERNOON_MS, rng)
                                for stream in streams))

    # The afternoon starts on a fresh timeline.  The direct path
    # (no queue, no shedder) advances the clock to each arrival and
    # traces every inference.
    env.rewind_clock()
    print(f"running {len(arrivals)} inferences over "
          f"{AFTERNOON_MS / 60000:.0f} virtual minutes (scenario D4)\n")
    service.serve(arrivals, ServingConfig.disabled())
    recorder = service.trace

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

"""Workloads: timed request streams driving one engine.

A workload is a :mod:`repro.serving.arrivals` stream — steady (an evenly
spaced :class:`TraceArrivals`), Poisson, bursty (Markov-modulated) or
several services merged with :func:`merge_arrivals` — served through the
direct loop, ``AutoScaleService.serve(arrivals, ServingConfig.disabled())``,
which advances the environment's clock to each arrival and runs one
Algorithm-1 cycle.
"""

import pytest

from repro.common import ConfigError, make_rng
from repro.core.service import AutoScaleService
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.hardware.devices import build_device
from repro.serving.arrivals import (
    Arrival,
    MarkovModulatedArrivals,
    PoissonArrivals,
    TraceArrivals,
    merge_arrivals,
)
from repro.serving.pipeline import ServingConfig


@pytest.fixture()
def case(zoo):
    return use_case_for(zoo["mobilenet_v3"])


@pytest.fixture()
def other_case(zoo):
    return use_case_for(zoo["resnet_50"])


def _steady(name, interval_ms, duration_ms):
    count = int(duration_ms // interval_ms)
    return TraceArrivals(tuple((i * interval_ms, name)
                               for i in range(count)))


def _service(case):
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                               seed=0)
    service = AutoScaleService(env, seed=0)
    service.register(case)
    return env, service


class TestSteadyWorkload:
    def test_count_and_spacing(self, case):
        arrivals = _steady(case.name, 100.0, 1000.0).generate(1000.0)
        assert len(arrivals) == 10
        gaps = [b.at_ms - a.at_ms for a, b in zip(arrivals, arrivals[1:])]
        assert all(g == pytest.approx(100.0) for g in gaps)


class TestPoissonWorkload:
    def test_rate_approximately_met(self, case):
        arrivals = PoissonArrivals(case.name, arrivals_per_s=5.0).generate(
            600_000.0, rng=make_rng(0))
        # 5/s over 600 s -> ~3000 requests.
        assert 2700 <= len(arrivals) <= 3300

    def test_sorted_times_within_horizon(self, case):
        arrivals = PoissonArrivals(case.name, arrivals_per_s=2.0).generate(
            10_000.0, rng=make_rng(1))
        times = [a.at_ms for a in arrivals]
        assert times == sorted(times)
        assert all(0 <= t < 10_000.0 for t in times)

    def test_deterministic_given_seed(self, case):
        stream = PoissonArrivals(case.name, 2.0)
        a = stream.generate(10_000.0, make_rng(3))
        b = stream.generate(10_000.0, make_rng(3))
        assert [r.at_ms for r in a] == [r.at_ms for r in b]


class TestSessionWorkload:
    def test_bursty_structure(self, case):
        arrivals = MarkovModulatedArrivals(
            case.name, calm_per_s=0.05, burst_per_s=4.0,
            calm_dwell_ms=30_000.0, burst_dwell_ms=5_000.0,
        ).generate(300_000.0, rng=make_rng(2))
        gaps = sorted(b.at_ms - a.at_ms
                      for a, b in zip(arrivals, arrivals[1:]))
        # Short in-burst gaps and long calm gaps must both appear.
        assert gaps[0] < 2_000.0
        assert gaps[-1] > 10_000.0


class TestMixedWorkload:
    def test_merges_sorted(self, case, other_case):
        merged = merge_arrivals(
            _steady(case.name, 300.0, 5_000.0).generate(5_000.0),
            _steady(other_case.name, 700.0, 5_000.0).generate(5_000.0),
        )
        times = [a.at_ms for a in merged]
        assert times == sorted(times)
        assert {a.name for a in merged} == {case.name, other_case.name}


class TestRunWorkload:
    def test_drives_engine_and_clock(self, case):
        env, service = _service(case)
        served = service.serve(_steady(case.name, 2_000.0, 20_000.0)
                               .generate(20_000.0),
                               ServingConfig.disabled())
        assert len(served) == 10
        assert service.engine.total_steps == 10
        # The clock advanced past the last arrival.
        assert env.clock.now_ms >= 18_000.0

    def test_frozen_mode(self, case):
        env, service = _service(case)
        service.engine.run(case, 80)
        service.engine.freeze()
        before = service.engine.qtable.update_count
        service.serve(_steady(case.name, 1_000.0, 5_000.0)
                      .generate(5_000.0), ServingConfig.disabled())
        assert service.engine.qtable.update_count == before

    def test_negative_request_time_rejected(self, case):
        with pytest.raises(ConfigError):
            Arrival(-1.0, case.name)

"""Tests for repro.common utilities."""

import math

import numpy as np
import pytest

from repro.common import (
    ConfigError,
    ReproError,
    SimulationError,
    Stopwatch,
    bytes_to_mbits,
    clamp,
    make_rng,
    mbits_to_bytes,
    mj_to_joules,
    ms_to_seconds,
    ppw_from_energy,
)


class TestErrors:
    def test_config_error_is_repro_error(self):
        assert issubclass(ConfigError, ReproError)

    def test_simulation_error_is_repro_error(self):
        assert issubclass(SimulationError, ReproError)


class TestMakeRng:
    def test_seeded_rng_is_deterministic(self):
        a = make_rng(7).random()
        b = make_rng(7).random()
        assert a == b

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestUnitConversions:
    def test_mj_to_joules(self):
        assert mj_to_joules(1500.0) == 1.5

    def test_ms_to_seconds(self):
        assert ms_to_seconds(250.0) == 0.25

    def test_mbits_bytes_roundtrip(self):
        assert bytes_to_mbits(mbits_to_bytes(3.2)) == pytest.approx(3.2)

    def test_one_mbit_is_125000_bytes(self):
        assert mbits_to_bytes(1.0) == 125_000.0


class TestPpw:
    def test_ppw_is_reciprocal_energy(self):
        # 100 mJ per inference -> 10 inferences per joule.
        assert ppw_from_energy(100.0) == pytest.approx(10.0)

    def test_lower_energy_means_higher_ppw(self):
        assert ppw_from_energy(50.0) > ppw_from_energy(100.0)

    def test_rejects_non_positive_energy(self):
        with pytest.raises(ConfigError):
            ppw_from_energy(0.0)


class TestClamp:
    def test_inside_interval(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_below(self):
        assert clamp(-3.0, 0.0, 1.0) == 0.0

    def test_above(self):
        assert clamp(7.0, 0.0, 1.0) == 1.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ConfigError):
            clamp(0.5, 2.0, 1.0)


class TestStopwatch:
    def test_advance_accumulates(self):
        clock = Stopwatch()
        clock.advance(10.0)
        clock.advance(5.5)
        assert clock.now_ms == pytest.approx(15.5)

    def test_negative_advance_rejected(self):
        with pytest.raises(ConfigError):
            Stopwatch().advance(-1.0)

    def test_nan_advance_rejected(self):
        with pytest.raises(ConfigError):
            Stopwatch().advance(math.nan)

    @pytest.mark.parametrize("delta_ms", (math.inf, -math.inf, -1e-300))
    def test_non_finite_or_negative_advance_rejected(self, delta_ms):
        clock = Stopwatch(5.0)
        with pytest.raises(ConfigError,
                           match=f"cannot advance clock by {delta_ms} ms"):
            clock.advance(delta_ms)
        assert clock.now_ms == 5.0

    @pytest.mark.parametrize("delta_ms", (0.0, -0.0, 5e-324, 1e300))
    def test_zero_and_finite_advances_accepted(self, delta_ms):
        clock = Stopwatch(5.0)
        assert clock.advance(delta_ms) == 5.0 + delta_ms

    def test_reset(self):
        clock = Stopwatch()
        clock.advance(100.0)
        clock.reset()
        assert clock.now_ms == 0.0

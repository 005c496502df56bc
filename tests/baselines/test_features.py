"""Tests for the ML-baseline feature encoders."""

import numpy as np
import pytest

from repro.baselines.features import (
    ACTION_DIM,
    CONTEXT_DIM,
    PAIR_DIM,
    Standardizer,
    collect_dataset,
    encode_action,
    encode_context,
    encode_pairs,
    vf_fraction_for,
)
from repro.common import ConfigError, make_rng
from repro.env.environment import EdgeCloudEnvironment
from repro.env.observation import Observation
from repro.env.qos import use_case_for
from repro.env.scenarios import SCENARIO_NAMES
from repro.env.target import ExecutionTarget, Location
from repro.hardware.devices import build_device
from repro.models.quantization import Precision
from tests.baselines.pair_walk import encode_pair


class TestEncodeContext:
    def test_dimension(self, zoo):
        vec = encode_context(zoo["mobilenet_v3"], Observation())
        assert vec.shape == (CONTEXT_DIM,)

    def test_macs_in_log_scale(self, zoo):
        light = encode_context(zoo["mobilenet_v3"], Observation())[3]
        heavy = encode_context(zoo["inception_v3"], Observation())[3]
        ratio = (zoo["inception_v3"].mega_macs
                 / zoo["mobilenet_v3"].mega_macs)
        assert heavy - light == pytest.approx(np.log1p(
            zoo["inception_v3"].mega_macs) - np.log1p(
            zoo["mobilenet_v3"].mega_macs))
        assert heavy / light < ratio  # compressed

    def test_weakness_transform_saturates(self, zoo):
        strong = encode_context(zoo["mobilenet_v3"],
                                Observation(rssi_wlan_dbm=-50.0))[8]
        weak = encode_context(zoo["mobilenet_v3"],
                              Observation(rssi_wlan_dbm=-95.0))[8]
        assert strong < 0.01
        assert weak > 0.95


class TestEncodeAction:
    def test_dimension_and_one_hots(self):
        target = ExecutionTarget(Location.CLOUD, "gpu", Precision.FP32)
        vec = encode_action(target)
        assert vec.shape == (ACTION_DIM,)
        # location one-hot (3) + role one-hot (4) + precision (3).
        assert vec[:3].sum() == 1.0
        assert vec[3:7].sum() == 1.0
        assert vec[7:10].sum() == 1.0

    def test_remote_vf_fraction_is_one(self):
        target = ExecutionTarget(Location.CLOUD, "gpu", Precision.FP32)
        assert encode_action(target)[-2] == 1.0

    def test_explicit_vf_fraction(self):
        target = ExecutionTarget(Location.LOCAL, "cpu", Precision.INT8, 3)
        vec = encode_action(target, vf_fraction=0.5)
        assert vec[-2] == 0.5
        assert vec[-1] == pytest.approx(np.log(0.5))


class TestVfFraction:
    def test_local_fraction_from_table(self, env):
        cpu = env.device.soc.cpu
        top = ExecutionTarget(Location.LOCAL, "cpu", Precision.FP32,
                              cpu.num_vf_steps - 1)
        bottom = ExecutionTarget(Location.LOCAL, "cpu", Precision.FP32, 0)
        assert vf_fraction_for(top, env) == pytest.approx(1.0)
        assert vf_fraction_for(bottom, env) == pytest.approx(
            cpu.vf_table[0].freq_mhz / cpu.max_freq_mhz
        )

    def test_remote_is_full_clock(self, env):
        target = ExecutionTarget(Location.CLOUD, "gpu", Precision.FP32)
        assert vf_fraction_for(target, env) == 1.0


class TestEncodePair:
    def test_dimension(self, env, zoo):
        target = env.targets()[0]
        vec = encode_pairs(zoo["mobilenet_v3"], Observation(), (target,),
                           env)[0]
        assert vec.shape == (PAIR_DIM,)

    def test_interactions_zero_for_other_locations(self, env, zoo):
        cloud = ExecutionTarget(Location.CLOUD, "gpu", Precision.FP32)
        vec = encode_pairs(zoo["mobilenet_v3"], Observation(), (cloud,),
                           env)[0]
        # log_macs * is_local must be zero for a cloud action.
        assert vec[CONTEXT_DIM + ACTION_DIM] == 0.0
        # log_macs * is_cloud must be positive.
        assert vec[CONTEXT_DIM + ACTION_DIM + 1] > 0.0


class TestEncodePairsMatchesScalarWalk:
    @pytest.mark.parametrize("device_name", ["mi8pro", "mi8pro_npu"])
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_rows_equal_the_scalar_walk(self, zoo, device_name, scenario):
        """Every target's batched row is the one-target scalar walk's,
        at observations drawn from each Table-IV scenario."""
        env = EdgeCloudEnvironment(build_device(device_name),
                                   scenario=scenario, seed=7)
        targets = env.targets()
        for name in ("mobilenet_v3", "resnet_50", "mobilebert"):
            network = zoo[name]
            for _ in range(2):
                observation = env.observe()
                expected = np.array([
                    encode_pair(network, observation, target, env)
                    for target in targets
                ])
                assert np.array_equal(
                    encode_pairs(network, observation, targets, env),
                    expected)
                env.advance_clock(5_000.0)


class TestStandardizer:
    def test_zero_mean_unit_std(self):
        rng = make_rng(0)
        matrix = rng.normal(5.0, 3.0, size=(200, 4))
        scaled = Standardizer().fit_transform(matrix)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_protected(self):
        matrix = np.ones((10, 2))
        scaled = Standardizer().fit_transform(matrix)
        assert np.all(np.isfinite(scaled))

    def test_unfitted_rejected(self):
        with pytest.raises(ConfigError):
            Standardizer().transform(np.ones((2, 2)))

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigError):
            Standardizer().fit(np.ones(5))


class TestCollectDataset:
    def test_shapes_and_positivity(self, env, zoo):
        cases = [use_case_for(zoo["mobilenet_v3"])]
        dataset = collect_dataset(env, cases, samples_per_case=12,
                                  rng=make_rng(0))
        assert len(dataset) == 12
        assert dataset.features.shape == (12, PAIR_DIM)
        assert (dataset.energy_mj > 0).all()
        assert (dataset.latency_ms > 0).all()
        assert len(dataset.target_keys) == 12

    def test_invalid_sample_count(self, env, zoo):
        with pytest.raises(ConfigError):
            collect_dataset(env, [use_case_for(zoo["mobilenet_v3"])],
                            samples_per_case=0)

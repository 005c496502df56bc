"""Tests for the action space."""

import numpy as np
import pytest

from repro.common import ConfigError
from repro.env.environment import EdgeCloudEnvironment
from repro.env.target import ActionSpace, ExecutionTarget, Location
from repro.hardware.devices import DEVICE_BUILDERS, DeviceClass
from repro.models.quantization import Precision

_PHONES = sorted(name for name, build in DEVICE_BUILDERS.items()
                 if build().device_class is DeviceClass.PHONE)


class TestActionSpace:
    def test_from_environment_matches_paper_count(self, env):
        space = ActionSpace.from_environment(env)
        assert len(space) == 66

    def test_index_roundtrip(self, env):
        space = ActionSpace.from_environment(env)
        for index, target in enumerate(space):
            assert space.index_of(target) == index
            assert space.target(index) is target

    def test_contains(self, env):
        space = ActionSpace.from_environment(env)
        assert space.target(0) in space
        foreign = ExecutionTarget(Location.LOCAL, "gpu", Precision.FP16,
                                  99)
        assert foreign not in space

    def test_unknown_target_raises(self, env):
        space = ActionSpace.from_environment(env)
        with pytest.raises(KeyError):
            space.index_of(ExecutionTarget(Location.LOCAL, "gpu",
                                           Precision.FP16, 99))

    def test_without_augmentations(self, env):
        space = ActionSpace.from_environment(env, with_dvfs=False)
        assert len(space) == 10

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ActionSpace([])

    def test_duplicates_rejected(self):
        target = ExecutionTarget(Location.CLOUD, "gpu", Precision.FP32)
        with pytest.raises(ConfigError):
            ActionSpace([target, target])


class TestEnvironmentOwnsTheSpace:
    @pytest.mark.parametrize("device_name", _PHONES)
    def test_default_space_is_the_environments(self, device_name):
        env = EdgeCloudEnvironment(DEVICE_BUILDERS[device_name](), seed=0)
        assert ActionSpace.from_environment(env) is env.action_space
        assert env.targets() is env.action_space.targets

    def test_custom_augmentations_build_a_new_space(self, env):
        space = ActionSpace.from_environment(env, with_quantization=False)
        assert space is not env.action_space
        assert len(space) < len(env.action_space)


class TestClassColumns:
    @pytest.mark.parametrize("device_name", _PHONES)
    def test_columns_equal_the_per_target_predicates(self, device_name):
        space = EdgeCloudEnvironment(DEVICE_BUILDERS[device_name](),
                                     seed=0).action_space
        targets = space.targets
        assert space.local.tolist() \
            == [not target.is_remote for target in targets]
        assert space.int8.tolist() \
            == [target.precision is Precision.INT8 for target in targets]
        assert space.reduced.tolist() \
            == [target.precision is not Precision.FP32
                for target in targets]

    @pytest.mark.parametrize("column", ["local", "int8", "reduced"])
    def test_columns_are_read_only(self, env, column):
        values = getattr(env.action_space, column)
        assert values.dtype == np.bool_
        with pytest.raises(ValueError):
            values[0] = not values[0]
        with pytest.raises(ValueError):
            values &= False

"""Tests for the brownout controller: hysteresis and tier masks."""

import pytest

from repro.common import ConfigError
from repro.env.target import ActionSpace, ExecutionTarget, Location
from repro.models.quantization import Precision
from repro.serving.brownout import (
    BrownoutConfig,
    BrownoutController,
    BrownoutTier,
)


def _controller(enter_depth=8, exit_depth=2, patience=3, enabled=True):
    return BrownoutController(BrownoutConfig(
        enabled=enabled, enter_depth=enter_depth, exit_depth=exit_depth,
        patience=patience,
    ))


class TestConfig:
    def test_watermarks_must_form_a_band(self):
        with pytest.raises(ConfigError):
            BrownoutConfig(enter_depth=4, exit_depth=4)
        with pytest.raises(ConfigError):
            BrownoutConfig(enter_depth=0)
        with pytest.raises(ConfigError):
            BrownoutConfig(patience=0)

    def test_disabled_never_escalates(self):
        controller = _controller(enabled=False)
        for _ in range(5):
            assert controller.observe_pressure(1_000) \
                is BrownoutTier.NORMAL
        assert controller.escalations == 0


class TestHysteresis:
    def test_escalation_is_immediate_and_stepwise(self):
        controller = _controller(enter_depth=8)
        assert controller.observe_pressure(8) \
            is BrownoutTier.REDUCED_PRECISION
        assert controller.observe_pressure(50) is BrownoutTier.LOCAL_ONLY
        # Deepest tier saturates; no further transition to count.
        assert controller.observe_pressure(50) is BrownoutTier.LOCAL_ONLY
        assert controller.escalations == 2

    def test_deescalation_waits_for_patience(self):
        controller = _controller(exit_depth=2, patience=3)
        controller.observe_pressure(10)  # -> REDUCED_PRECISION
        assert controller.observe_pressure(0) \
            is BrownoutTier.REDUCED_PRECISION
        assert controller.observe_pressure(1) \
            is BrownoutTier.REDUCED_PRECISION
        assert controller.observe_pressure(2) is BrownoutTier.NORMAL
        assert controller.deescalations == 1

    def test_band_depth_resets_the_calm_streak(self):
        controller = _controller(enter_depth=8, exit_depth=2, patience=2)
        controller.observe_pressure(10)  # -> REDUCED_PRECISION
        controller.observe_pressure(0)   # calm 1/2
        controller.observe_pressure(5)   # inside the band: streak resets
        controller.observe_pressure(0)   # calm 1/2 again
        assert controller.observe_pressure(0) is BrownoutTier.NORMAL

    def test_negative_depth_rejected(self):
        with pytest.raises(ConfigError):
            _controller().observe_pressure(-1)


def _target(precision, is_remote):
    if is_remote:
        return ExecutionTarget(Location.CLOUD, "gpu", precision)
    return ExecutionTarget(Location.LOCAL, "cpu", precision, vf_index=0)


def _space(*targets):
    return ActionSpace(_target(*pair) for pair in targets)


_SPACE = _space(
    (Precision.FP32, True),
    (Precision.FP16, True),
    (Precision.INT8, True),
    (Precision.FP32, False),
    (Precision.INT8, False),
)


class TestMasks:
    def test_normal_tier_has_no_mask(self):
        assert _controller().mask(_SPACE) is None

    def test_reduced_precision_masks_to_int8(self):
        controller = _controller()
        controller.tier = BrownoutTier.REDUCED_PRECISION
        assert list(controller.mask(_SPACE)) \
            == [False, False, True, False, True]

    def test_reduced_precision_falls_back_to_non_fp32(self):
        controller = _controller()
        controller.tier = BrownoutTier.REDUCED_PRECISION
        space = _space((Precision.FP32, True), (Precision.FP16, False))
        assert list(controller.mask(space)) == [False, True]

    def test_local_only_masks_to_local_int8(self):
        controller = _controller()
        controller.tier = BrownoutTier.LOCAL_ONLY
        assert list(controller.mask(_SPACE)) \
            == [False, False, False, False, True]

    def test_local_only_falls_back_to_plain_local(self):
        controller = _controller()
        controller.tier = BrownoutTier.LOCAL_ONLY
        space = _space((Precision.FP32, True), (Precision.FP32, False))
        assert list(controller.mask(space)) == [False, True]

    def test_mask_never_empties_the_action_space(self):
        controller = _controller()
        controller.tier = BrownoutTier.LOCAL_ONLY
        remote_only = _space((Precision.FP32, True))
        assert controller.mask(remote_only) is None

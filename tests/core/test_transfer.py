"""Tests for cross-device Q-table transfer."""

import numpy as np
import pytest

from repro.common import ConfigError
from repro.env.target import ActionSpace
from repro.core.qlearning import QTable
from repro.core.transfer import map_actions, transfer_q_table
from repro.env.environment import EdgeCloudEnvironment
from repro.hardware.devices import build_device


@pytest.fixture()
def mi8_space():
    env = EdgeCloudEnvironment(build_device("mi8pro"), seed=0)
    return ActionSpace.from_environment(env)


@pytest.fixture()
def moto_space():
    env = EdgeCloudEnvironment(build_device("moto_x_force"), seed=0)
    return ActionSpace.from_environment(env)


class TestMapActions:
    def test_every_moto_action_maps_from_mi8(self, mi8_space, moto_space):
        """The Moto's capabilities are a subset of the Mi8Pro's."""
        mapping = map_actions(mi8_space, moto_space)
        assert len(mapping) == len(moto_space)
        assert all(m is not None for m in mapping)

    def test_mapped_slots_match(self, mi8_space, moto_space):
        mapping = map_actions(mi8_space, moto_space)
        for target_index, source_index in enumerate(mapping):
            a = moto_space.target(target_index)
            b = mi8_space.target(source_index)
            assert (a.location, a.role, a.precision) \
                == (b.location, b.role, b.precision)

    def test_dsp_has_no_source_on_dsp_less_device(self, mi8_space,
                                                  moto_space):
        mapping = map_actions(moto_space, mi8_space)
        missing = [mi8_space.target(i).key
                   for i, m in enumerate(mapping) if m is None]
        assert missing == ["local/dsp/int8/vf0"]

    def test_vf_positions_align_proportionally(self, mi8_space,
                                               moto_space):
        mapping = map_actions(mi8_space, moto_space)
        # The Moto CPU's top step must map to the Mi8Pro CPU's top step.
        for target_index, source_index in enumerate(mapping):
            target = moto_space.target(target_index)
            if target.key == "local/cpu/fp32/vf14":
                assert mi8_space.target(source_index).key \
                    == "local/cpu/fp32/vf22"

    def test_identity_mapping_for_same_space(self, mi8_space):
        mapping = map_actions(mi8_space, mi8_space)
        assert mapping == list(range(len(mi8_space)))


class TestTransferQTable:
    def test_values_copied_by_slot(self, mi8_space, moto_space):
        source = QTable(16, len(mi8_space), seed=1)
        source.values[:] = np.arange(
            16 * len(mi8_space), dtype=float
        ).reshape(16, -1)
        target = QTable(16, len(moto_space), seed=2)
        transferred = transfer_q_table(source, mi8_space, target,
                                       moto_space)
        assert transferred == len(moto_space)
        mapping = map_actions(mi8_space, moto_space)
        for column, source_index in enumerate(mapping):
            assert np.allclose(target.values[:, column],
                               source.values[:, source_index])

    def test_blend(self, mi8_space, moto_space):
        source = QTable(4, len(mi8_space), seed=1)
        target = QTable(4, len(moto_space), seed=2)
        fresh = target.values.copy()
        transfer_q_table(source, mi8_space, target, moto_space, blend=0.5)
        mapping = map_actions(mi8_space, moto_space)
        expected = 0.5 * source.values[:, mapping[0]] + 0.5 * fresh[:, 0]
        assert np.allclose(target.values[:, 0], expected, atol=1e-6)

    def test_state_space_mismatch_rejected(self, mi8_space, moto_space):
        source = QTable(8, len(mi8_space), seed=1)
        target = QTable(16, len(moto_space), seed=2)
        with pytest.raises(ConfigError):
            transfer_q_table(source, mi8_space, target, moto_space)

    def test_bad_blend_rejected(self, mi8_space, moto_space):
        source = QTable(4, len(mi8_space), seed=1)
        target = QTable(4, len(moto_space), seed=2)
        with pytest.raises(ConfigError):
            transfer_q_table(source, mi8_space, target, moto_space,
                             blend=0.0)

    def test_unmapped_actions_keep_fresh_values(self, mi8_space,
                                                moto_space):
        source = QTable(4, len(moto_space), seed=1)
        target = QTable(4, len(mi8_space), seed=2)
        fresh = target.values.copy()
        transfer_q_table(source, moto_space, target, mi8_space)
        dsp_column = mi8_space.index_of(
            next(t for t in mi8_space if t.role == "dsp"
                 and t.location.value == "local")
        )
        assert np.allclose(target.values[:, dsp_column],
                           fresh[:, dsp_column])

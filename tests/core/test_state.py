"""Tests for the Table-I state space."""

import itertools
import math

import pytest

from repro.common import ConfigError
from repro.core.state import StateFeature, StateSpace, table_i_state_space
from repro.env.observation import Observation
from repro.models.layers import LayerType


@pytest.fixture()
def space():
    return table_i_state_space()


class TestTableISize:
    def test_3072_states(self, space):
        """Footnote 8: the design space has 3,072 states."""
        assert space.size == 3072

    def test_eight_features(self, space):
        assert len(space.features) == 8

    def test_feature_order(self, space):
        assert [f.name for f in space.features] == [
            "s_conv", "s_fc", "s_rc", "s_mac", "s_co_cpu", "s_co_mem",
            "s_rssi_w", "s_rssi_p",
        ]


class TestTableIBins:
    """Bin boundaries verbatim from Table I."""

    def test_s_conv(self, space):
        feature = space.feature("s_conv")
        assert feature.label_of(29) == "small"
        assert feature.label_of(30) == "medium"
        assert feature.label_of(49) == "medium"
        assert feature.label_of(50) == "large"
        assert feature.label_of(89) == "large"
        assert feature.label_of(90) == "larger"

    def test_s_fc(self, space):
        feature = space.feature("s_fc")
        assert feature.label_of(9) == "small"
        assert feature.label_of(10) == "large"

    def test_s_rc(self, space):
        feature = space.feature("s_rc")
        assert feature.label_of(0) == "small"
        assert feature.label_of(24) == "large"

    def test_s_mac(self, space):
        feature = space.feature("s_mac")
        assert feature.label_of(999.0) == "small"
        assert feature.label_of(1000.0) == "medium"
        assert feature.label_of(1999.0) == "medium"
        assert feature.label_of(2000.0) == "large"

    def test_s_co_cpu_zero_bin(self, space):
        feature = space.feature("s_co_cpu")
        assert feature.label_of(0.0) == "none"
        assert feature.label_of(0.1) == "small"
        assert feature.label_of(24.9) == "small"
        assert feature.label_of(25.0) == "medium"
        assert feature.label_of(74.9) == "medium"
        assert feature.label_of(75.0) == "large"
        assert feature.label_of(100.0) == "large"

    def test_rssi_threshold(self, space):
        for name in ("s_rssi_w", "s_rssi_p"):
            feature = space.feature(name)
            assert feature.label_of(-80.0) == "weak"
            assert feature.label_of(-80.1) == "weak"
            assert feature.label_of(-79.9) == "regular"


class TestEncoding:
    def test_index_in_range(self, space, zoo):
        obs = Observation()
        for network in zoo.values():
            index = space.encode(network, obs)
            assert 0 <= index < space.size

    def test_distinct_networks_can_share_bins(self, space, zoo):
        """MobileNet v3 and SSD-MobileNet v3 land in the same state —
        this aliasing is what makes leave-one-out generalize."""
        obs = Observation()
        assert space.encode(zoo["mobilenet_v3"], obs) \
            == space.encode(zoo["ssd_mobilenet_v3"], obs)

    def test_observation_changes_state(self, space, zoo):
        net = zoo["mobilenet_v3"]
        quiet = space.encode(net, Observation())
        busy = space.encode(net, Observation(cpu_util=0.9))
        weak = space.encode(net, Observation(rssi_wlan_dbm=-86.0))
        assert len({quiet, busy, weak}) == 3

    def test_describe_labels(self, space, zoo):
        labels = space.describe(zoo["mobilebert"], Observation())
        assert labels["s_rc"] == "large"
        assert labels["s_conv"] == "small"

    def test_index_bijective_over_bins(self, space):
        seen = set()
        import itertools
        radices = [f.num_bins for f in space.features]
        for bins in itertools.product(*(range(r) for r in radices)):
            seen.add(space.index_of(bins))
        assert len(seen) == space.size


def _raw(network, observation):
    """The Table-I raw values, from a fresh layer walk."""
    kinds = [layer.kind for layer in network.layers]
    return (
        kinds.count(LayerType.CONV), kinds.count(LayerType.FC),
        kinds.count(LayerType.RC),
        sum(layer.macs for layer in network.layers) / 1e6,
        observation.cpu_util * 100.0, observation.mem_util * 100.0,
        observation.rssi_wlan_dbm, observation.rssi_p2p_dbm,
    )


#: Utilizations on and off the 0 / 25% / 75% edges; RSSIs on the -80 dBm
#: edge, one ulp above it, and at the observation window's limits.
_UTILS = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)
_RSSIS = (-120.0, -90.0, -80.0, math.nextafter(-80.0, 0.0), -55.0, -10.0)


class TestFusedEncodeParity:
    """``encode`` folds binning and flattening into one loop; it must
    agree with the validated two-step ``index_of(discretize(raw))``."""

    def test_every_zoo_network_over_the_boundary_grid(self, space, zoo):
        for network in zoo.values():
            for cpu, mem, wlan, p2p in itertools.product(
                    _UTILS, _UTILS, _RSSIS, _RSSIS):
                observation = Observation(cpu_util=cpu, mem_util=mem,
                                          rssi_wlan_dbm=wlan,
                                          rssi_p2p_dbm=p2p)
                expected = space.index_of(
                    space.discretize(_raw(network, observation)))
                assert space.encode(network, observation) == expected, (
                    network.name, cpu, mem, wlan, p2p)

    def test_grid_straddles_the_rssi_edge(self, space, zoo):
        net = zoo["mobilenet_v3"]
        weak = space.encode(net, Observation(rssi_wlan_dbm=-80.0))
        regular = space.encode(
            net, Observation(rssi_wlan_dbm=math.nextafter(-80.0, 0.0)))
        assert weak != regular

    def test_non_table_i_space_still_raises(self, space, zoo):
        smaller = space.without("s_rssi_p")
        with pytest.raises(ConfigError):
            smaller.encode(zoo["mobilenet_v3"], Observation())

    def test_discretize_and_index_of_check_lengths(self, space):
        with pytest.raises(ConfigError):
            space.discretize((1, 2, 3))
        with pytest.raises(ConfigError):
            space.index_of((0,) * 7)


class TestAblation:
    def test_without_removes_feature(self, space):
        smaller = space.without("s_rssi_p")
        assert smaller.size == space.size // 2
        with pytest.raises(KeyError):
            smaller.feature("s_rssi_p")

    def test_without_unknown_raises(self, space):
        with pytest.raises(KeyError):
            space.without("s_gpu")


class TestValidation:
    def test_unsorted_edges_rejected(self):
        with pytest.raises(ConfigError):
            StateFeature("x", edges=(5, 2), labels=("a", "b", "c"))

    def test_label_count_checked(self):
        with pytest.raises(ConfigError):
            StateFeature("x", edges=(5,), labels=("a",))

    def test_zero_bin_needs_extra_label(self):
        feature = StateFeature("x", edges=(5,), labels=("z", "a", "b"),
                               zero_bin=True)
        assert feature.num_bins == 3

    def test_empty_space_rejected(self):
        with pytest.raises(ConfigError):
            StateSpace([])

    def test_bad_bin_index_rejected(self, space):
        with pytest.raises(ConfigError):
            space.index_of((99,) * 8)

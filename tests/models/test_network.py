"""Tests for the NeuralNetwork descriptor."""

import copy
import dataclasses
import pickle

import pytest

from repro.common import ConfigError
from repro.models.layers import LayerType, make_layer
from repro.models.network import NeuralNetwork, Task


def _tiny_network():
    layers = (
        make_layer(LayerType.CONV, "conv_0", macs=1e6, output_bytes=1000),
        make_layer(LayerType.CONV, "conv_1", macs=2e6, output_bytes=500),
        make_layer(LayerType.FC, "fc_0", macs=5e5, output_bytes=100),
    )
    return NeuralNetwork(
        name="tiny", task=Task.IMAGE_CLASSIFICATION, layers=layers,
        input_bytes=4000, output_bytes=40,
    )


class TestComposition:
    def test_counts(self):
        net = _tiny_network()
        assert net.num_conv == 2
        assert net.num_fc == 1
        assert net.num_rc == 0

    def test_composition_tuple(self):
        assert _tiny_network().composition.as_tuple() == (2, 1, 0)

    def test_total_macs(self):
        assert _tiny_network().total_macs == pytest.approx(3.5e6)

    def test_mega_macs(self):
        assert _tiny_network().mega_macs == pytest.approx(3.5)


class TestCachedStatistics:
    """The Table-III statistics are computed once per network and cached
    in the instance; the cache must never outlive the layers it
    summarizes or leak into equality/hashing."""

    _STATS = ("num_conv", "num_fc", "num_rc", "total_macs", "mega_macs")

    @staticmethod
    def _walk(network):
        kinds = [layer.kind for layer in network.layers]
        macs = sum(layer.macs for layer in network.layers)
        return (kinds.count(LayerType.CONV), kinds.count(LayerType.FC),
                kinds.count(LayerType.RC), macs, macs / 1e6)

    def _stats(self, network):
        return tuple(getattr(network, name) for name in self._STATS)

    def test_cached_values_equal_a_fresh_layer_walk(self, zoo):
        for network in zoo.values():
            assert self._stats(network) == self._walk(network)
            # Second read comes from the cache and is unchanged.
            assert self._stats(network) == self._walk(network)

    @pytest.mark.parametrize("clone", [
        lambda net: pickle.loads(pickle.dumps(net)),
        copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_round_trip_equal_and_hash_equal(self, zoo, clone):
        for network in zoo.values():
            fresh = clone(network)
            self._stats(network)  # populate the original's cache
            warm = clone(network)
            for twin in (fresh, warm):
                assert twin == network
                assert hash(twin) == hash(network)
                assert self._stats(twin) == self._walk(network)

    def test_replace_reports_the_new_layers(self):
        net = _tiny_network()
        assert (net.num_conv, net.num_fc) == (2, 1)  # populate the cache
        smaller = dataclasses.replace(net, layers=net.layers[:1])
        assert self._stats(smaller) == (1, 0, 0, 1e6, 1.0)
        assert smaller != net
        assert self._stats(net) == (2, 1, 0, 3.5e6, 3.5)


class TestSplit:
    def test_split_at_zero_is_all_remote(self):
        head, tail = _tiny_network().split(0)
        assert head == ()
        assert len(tail) == 3

    def test_split_at_end_is_all_local(self):
        head, tail = _tiny_network().split(3)
        assert len(head) == 3
        assert tail == ()

    def test_split_middle(self):
        head, tail = _tiny_network().split(2)
        assert [l.name for l in head] == ["conv_0", "conv_1"]
        assert [l.name for l in tail] == ["fc_0"]

    def test_out_of_range_split_rejected(self):
        with pytest.raises(ConfigError):
            _tiny_network().split(4)


class TestTransferBytes:
    def test_split_at_zero_ships_input(self):
        net = _tiny_network()
        assert net.transfer_bytes_at(0) == net.input_bytes

    def test_split_at_end_ships_nothing(self):
        assert _tiny_network().transfer_bytes_at(3) == 0.0

    def test_mid_split_ships_activation(self):
        net = _tiny_network()
        assert net.transfer_bytes_at(1) == 1000
        assert net.transfer_bytes_at(2) == 500


class TestValidation:
    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError):
            NeuralNetwork(
                name="x", task="cooking",
                layers=(make_layer(LayerType.CONV, "c", macs=1.0),),
                input_bytes=1, output_bytes=1,
            )

    def test_empty_layers_rejected(self):
        with pytest.raises(ConfigError):
            NeuralNetwork(name="x", task=Task.IMAGE_CLASSIFICATION,
                          layers=(), input_bytes=1, output_bytes=1)

    def test_duplicate_layer_names_rejected(self):
        layers = (make_layer(LayerType.CONV, "dup", macs=1.0),
                  make_layer(LayerType.CONV, "dup", macs=2.0))
        with pytest.raises(ConfigError):
            NeuralNetwork(name="x", task=Task.IMAGE_CLASSIFICATION,
                          layers=layers, input_bytes=1, output_bytes=1)

    def test_non_positive_io_rejected(self):
        with pytest.raises(ConfigError):
            NeuralNetwork(
                name="x", task=Task.IMAGE_CLASSIFICATION,
                layers=(make_layer(LayerType.CONV, "c", macs=1.0),),
                input_bytes=0, output_bytes=1,
            )

    def test_describe_mentions_composition(self):
        text = _tiny_network().describe()
        assert "CONV=2" in text and "FC=1" in text

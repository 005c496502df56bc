"""Tests for the Table-III network zoo."""

import pytest

from repro.models.layers import LayerType
from repro.models.network import Task
from repro.models.zoo import (
    NETWORK_NAMES,
    TABLE_III,
    build_network,
    heavy_networks,
    light_networks,
)

# Table III verbatim from the paper: (CONV, FC, RC).
PAPER_TABLE_III = {
    "inception_v1": (49, 1, 0),
    "inception_v3": (94, 1, 0),
    "mobilenet_v1": (14, 1, 0),
    "mobilenet_v2": (35, 1, 0),
    "mobilenet_v3": (23, 20, 0),
    "resnet_50": (53, 1, 0),
    "ssd_mobilenet_v1": (19, 1, 0),
    "ssd_mobilenet_v2": (52, 1, 0),
    "ssd_mobilenet_v3": (28, 20, 0),
    "mobilebert": (0, 1, 24),
}


class TestTableIII:
    def test_ten_networks(self):
        assert len(NETWORK_NAMES) == 10

    def test_module_constant_matches_paper(self):
        assert TABLE_III == PAPER_TABLE_III

    @pytest.mark.parametrize("name", sorted(PAPER_TABLE_III))
    def test_built_composition_matches_paper(self, zoo, name):
        assert zoo[name].composition.as_tuple() == PAPER_TABLE_III[name]

    def test_tasks(self, zoo):
        assert zoo["inception_v1"].task == Task.IMAGE_CLASSIFICATION
        assert zoo["ssd_mobilenet_v2"].task == Task.OBJECT_DETECTION
        assert zoo["mobilebert"].task == Task.TRANSLATION


class TestMacBudgets:
    """The S_MAC bins (Table I) depend on these totals."""

    def test_light_networks_under_1000m(self, zoo):
        for name in light_networks():
            assert zoo[name].mega_macs < 1000.0

    def test_heavy_networks_at_least_2000m(self, zoo):
        for name in heavy_networks():
            assert zoo[name].mega_macs >= 2000.0

    def test_mobilebert_is_heavy(self):
        assert "mobilebert" in heavy_networks()

    def test_mobilenets_are_light(self):
        for name in ("mobilenet_v1", "mobilenet_v2", "mobilenet_v3"):
            assert name in light_networks()


class TestWorkloadShape:
    def test_layer_macs_positive(self, zoo):
        for network in zoo.values():
            for layer in network.layers:
                assert layer.macs > 0

    def test_conv_dominates_vision_macs(self, zoo):
        net = zoo["resnet_50"]
        conv_macs = sum(l.macs for l in net.layers
                        if l.kind is LayerType.CONV)
        assert conv_macs > 0.9 * net.total_macs

    def test_mobilenet_v3_has_visible_fc_share(self, zoo):
        """The 20 squeeze-excite FC layers must matter for Fig. 3."""
        net = zoo["mobilenet_v3"]
        fc_macs = sum(l.macs for l in net.layers if l.kind is LayerType.FC)
        assert fc_macs / net.total_macs > 0.1

    def test_mobilebert_is_all_recurrent(self, zoo):
        net = zoo["mobilebert"]
        rc_macs = sum(l.macs for l in net.layers if l.kind is LayerType.RC)
        assert rc_macs > 0.9 * net.total_macs

    def test_early_activations_exceed_late(self, zoo):
        """Activation profile must decay so late splits are cheap."""
        for name in ("inception_v1", "resnet_50"):
            layers = zoo[name].layers
            assert layers[0].output_bytes > layers[-1].output_bytes

    def test_mid_network_activation_exceeds_wire_input(self, zoo):
        """Splitting early should cost more than shipping the input."""
        net = zoo["inception_v1"]
        assert net.layers[0].output_bytes > net.input_bytes

    def test_text_input_is_tiny(self, zoo):
        """MobileBERT's offload payload is tokens, not pixels (Fig. 2)."""
        assert zoo["mobilebert"].input_bytes < 10_000
        assert zoo["inception_v1"].input_bytes > 10_000


class TestBuildApi:
    def test_unknown_name_raises_keyerror_with_choices(self):
        with pytest.raises(KeyError, match="mobilenet_v1"):
            build_network("alexnet")

    def test_load_zoo_keys(self, zoo):
        assert set(zoo) == set(NETWORK_NAMES)

    def test_build_is_deterministic(self):
        a = build_network("mobilenet_v2")
        b = build_network("mobilenet_v2")
        assert a.total_macs == b.total_macs
        assert [l.name for l in a.layers] == [l.name for l in b.layers]


class TestCustomNetworks:
    """The adoption path: scheduling a user-defined model."""

    def test_vision_composition_honoured(self):
        from repro.models.zoo import build_custom_network

        net = build_custom_network("my_net", conv=40, fc=2, mmacs=900.0)
        assert net.composition.as_tuple() == (40, 2, 0)
        assert net.mega_macs == pytest.approx(900.0)

    def test_transformer_style(self):
        from repro.models.network import Task
        from repro.models.zoo import build_custom_network

        net = build_custom_network("my_bert", task=Task.TRANSLATION,
                                   conv=0, fc=1, rc=12, mmacs=2500.0)
        assert net.composition.as_tuple() == (0, 1, 12)

    def test_fc_heavy_gets_visible_fc_share(self):
        from repro.models.layers import LayerType
        from repro.models.zoo import build_custom_network

        net = build_custom_network("my_se_net", conv=25, fc=16,
                                   mmacs=400.0)
        fc_macs = sum(l.macs for l in net.layers
                      if l.kind is LayerType.FC)
        assert fc_macs / net.total_macs > 0.1

    def test_zoo_name_collision_rejected(self):
        from repro.common import ConfigError
        from repro.models.zoo import build_custom_network

        with pytest.raises(ConfigError, match="Table-III"):
            build_custom_network("mobilenet_v3")

    def test_mixed_conv_and_rc_rejected(self):
        from repro.common import ConfigError
        from repro.models.zoo import build_custom_network

        with pytest.raises(ConfigError):
            build_custom_network("hybrid", conv=10, rc=4)

    def test_end_to_end_with_custom_accuracy(self, mi8pro_device):
        """A custom network schedules end to end through AutoScale."""
        from repro.core.engine import AutoScale
        from repro.env.environment import EdgeCloudEnvironment
        from repro.env.qos import use_case_for
        from repro.models.accuracy import AccuracyTable, _BASE_FP32
        from repro.models.zoo import build_custom_network

        net = build_custom_network("adopter_net", conv=30, fc=1,
                                   mmacs=700.0)
        accuracy = AccuracyTable(
            base_fp32={**_BASE_FP32, "adopter_net": 73.0},
        )
        env = EdgeCloudEnvironment(mi8pro_device, scenario="S1",
                                   accuracy=accuracy, seed=0)
        engine = AutoScale(env, seed=0)
        engine.run(use_case_for(net), 90)
        engine.freeze()
        target = engine.predict(net, env.observe())
        result = env.estimate(net, target, env.observe())
        assert result.latency_ms <= 50.0

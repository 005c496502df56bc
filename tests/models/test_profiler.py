"""Tests for the per-layer profiler."""

import pytest

from repro.common import ConfigError
from repro.models.layers import LayerType
from repro.models.profiler import profile_network
from repro.models.quantization import Precision
from tests.env.layer_walk import walk_ms


@pytest.fixture()
def cpu(mi8pro_device):
    return mi8pro_device.soc.cpu


@pytest.fixture()
def gpu(mi8pro_device):
    return mi8pro_device.soc.processor("gpu")


class TestProfileNetwork:
    def test_totals_match_processor_model(self, cpu, zoo):
        network = zoo["inception_v1"]
        profile = profile_network(cpu, network, Precision.FP32)
        assert profile.total_latency_ms == pytest.approx(
            walk_ms(cpu, network.layers, Precision.FP32)
        )

    def test_cumulative_monotone(self, cpu, zoo):
        profile = profile_network(cpu, zoo["mobilenet_v3"],
                                  Precision.FP32)
        cumulative = [l.cumulative_ms for l in profile.layers]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == pytest.approx(profile.total_latency_ms)

    def test_energy_uses_busy_power(self, cpu, zoo):
        profile = profile_network(cpu, zoo["mobilenet_v3"],
                                  Precision.FP32, vf_index=-1)
        expected = cpu.busy_power_at(-1) * profile.total_latency_ms / 1000
        assert profile.total_energy_mj == pytest.approx(expected)

    def test_platform_power_added(self, cpu, zoo):
        bare = profile_network(cpu, zoo["mobilenet_v3"], Precision.FP32)
        with_base = profile_network(cpu, zoo["mobilenet_v3"],
                                    Precision.FP32,
                                    platform_idle_mw=500.0)
        assert with_base.total_energy_mj > bare.total_energy_mj

    def test_unsupported_precision_rejected(self, gpu, zoo):
        with pytest.raises(ConfigError):
            profile_network(gpu, zoo["mobilenet_v3"], Precision.INT8)


class TestAnalysis:
    def test_by_kind_partitions_latency(self, cpu, zoo):
        profile = profile_network(cpu, zoo["inception_v1"],
                                  Precision.FP32)
        assert sum(profile.by_kind().values()) == pytest.approx(
            profile.total_latency_ms
        )

    def test_dominant_kind_conv_for_inception_on_cpu(self, cpu, zoo):
        profile = profile_network(cpu, zoo["inception_v1"],
                                  Precision.FP32)
        assert profile.dominant_kind() is LayerType.CONV

    def test_dominant_kind_fc_for_mobilenet_v3_on_gpu(self, gpu, zoo):
        """Fig. 3's message at per-layer resolution."""
        profile = profile_network(gpu, zoo["mobilenet_v3"],
                                  Precision.FP32)
        assert profile.dominant_kind() is LayerType.FC

    def test_bottlenecks_sorted(self, cpu, zoo):
        profile = profile_network(cpu, zoo["resnet_50"], Precision.FP32)
        top = profile.bottlenecks(5)
        assert len(top) == 5
        latencies = [l.latency_ms for l in top]
        assert latencies == sorted(latencies, reverse=True)

    def test_table_rendered(self, cpu, zoo):
        profile = profile_network(cpu, zoo["mobilenet_v3"],
                                  Precision.FP32)
        text = profile.table(top=3)
        assert "mobilenet_v3" in text
        assert text.count("\n") < 10

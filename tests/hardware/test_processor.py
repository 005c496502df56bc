"""Tests for the processor performance model."""

import numpy as np
import pytest

from repro.common import ConfigError
from repro.hardware.devices import (
    PHONE_NAMES,
    build_device,
    cloud_server,
    galaxy_tab_s6,
)
from repro.hardware.dvfs import build_vf_table
from repro.hardware.processor import Processor, ProcessorKind, sum_layer_terms
from repro.models.layers import LayerType, make_layer
from repro.models.quantization import Precision
from repro.models.zoo import build_network
from tests.env.layer_walk import layer_ms, walk_ms


def _cpu(peak=10.0, steps=5):
    return Processor(
        name="test_cpu", kind=ProcessorKind.CPU,
        vf_table=build_vf_table(steps, 2000),
        peak_gmacs=peak,
        precisions={Precision.FP32: 1.0, Precision.INT8: 2.0},
        busy_power_mw=4000.0, idle_power_mw=300.0, num_cores=4,
    )


def _gpu():
    return Processor(
        name="test_gpu", kind=ProcessorKind.GPU,
        vf_table=build_vf_table(4, 700),
        peak_gmacs=30.0,
        precisions={Precision.FP32: 1.0, Precision.FP16: 1.8},
        busy_power_mw=1200.0, idle_power_mw=150.0,
    )


class TestThroughput:
    def test_top_step_fp32_equals_peak(self):
        assert _cpu().throughput_gmacs(Precision.FP32) == pytest.approx(10.0)

    def test_scales_with_frequency(self):
        cpu = _cpu()
        low = cpu.throughput_gmacs(Precision.FP32, 0)
        high = cpu.throughput_gmacs(Precision.FP32, -1)
        assert low == pytest.approx(
            high * cpu.vf_table[0].freq_mhz / cpu.vf_table[-1].freq_mhz
        )

    def test_precision_multiplier(self):
        cpu = _cpu()
        assert cpu.throughput_gmacs(Precision.INT8) == pytest.approx(20.0)

    def test_unsupported_precision_rejected(self):
        with pytest.raises(ConfigError):
            _cpu().throughput_gmacs(Precision.FP16)


def _entry_ms(proc, layer, precision, vf_index=-1, slowdown=1.0):
    """One layer's entry of the vector form."""
    return proc.layer_latencies_ms([layer], precision, vf_index,
                                   slowdown)[0]


class TestLayerLatency:
    def test_latency_includes_dispatch(self):
        cpu = _cpu()
        layer = make_layer(LayerType.CONV, "c", macs=0.0)
        assert _entry_ms(cpu, layer, Precision.FP32) == cpu.dispatch_ms

    def test_latency_proportional_to_macs(self):
        cpu = _cpu()
        small = make_layer(LayerType.CONV, "s", macs=1e8)
        big = make_layer(LayerType.CONV, "b", macs=2e8)
        small_ms, big_ms = cpu.layer_latencies_ms(
            [small, big], Precision.FP32) - cpu.dispatch_ms
        assert big_ms == pytest.approx(2 * small_ms)

    def test_slowdown_multiplies_compute_only(self):
        cpu = _cpu()
        layer = make_layer(LayerType.CONV, "c", macs=1e8)
        base = _entry_ms(cpu, layer, Precision.FP32)
        slowed = _entry_ms(cpu, layer, Precision.FP32, slowdown=2.0)
        assert slowed == pytest.approx(2 * base - cpu.dispatch_ms)

    def test_slowdown_below_one_rejected(self):
        layer = make_layer(LayerType.CONV, "c", macs=1e8)
        with pytest.raises(ConfigError):
            _cpu().layer_latencies_ms([layer], Precision.FP32,
                                      slowdown=0.5)

    def test_fig3_fc_slower_on_gpu_than_cpu(self):
        """Fig. 3's core observation, encoded in layer efficiencies."""
        cpu, gpu = _cpu(), _gpu()
        fc = make_layer(LayerType.FC, "f", macs=5e7)
        conv = make_layer(LayerType.CONV, "c", macs=5e8)
        assert (_entry_ms(gpu, fc, Precision.FP32)
                > _entry_ms(cpu, fc, Precision.FP32))
        assert (_entry_ms(gpu, conv, Precision.FP32)
                < _entry_ms(cpu, conv, Precision.FP32))


class TestOneSum:
    def test_sum_is_left_to_right(self):
        """A compensated sum (CPython 3.12+ ``sum``) would give 1.0."""
        assert sum_layer_terms(np.array([1e16, 1.0, -1e16]), 1.0,
                               0.0) == 0.0

    def test_empty_slice_rejected(self):
        with pytest.raises(ConfigError):
            _cpu().layers_latency_ms([], Precision.FP32)

    def test_matches_layer_walk_bitwise(self):
        """``layers_latency_ms`` and each ``layer_latencies_ms`` entry
        equal the test-side scalar walk with ``==``: every processor of
        every device, every precision and V/F step, whole/head/tail/mid
        slices, slowdown 1 and > 1."""
        devices = [*(build_device(name) for name in PHONE_NAMES),
                   build_device("mi8pro_npu"), cloud_server(),
                   galaxy_tab_s6()]
        checked = 0
        for network_name in ("inception_v1", "mobilebert"):
            layers = build_network(network_name).layers
            third = len(layers) // 3
            slices = (layers, layers[:third], layers[third:],
                      layers[third:-third])
            for device in devices:
                for role in device.soc.roles:
                    proc = device.soc.processor(role)
                    for precision in proc.precisions:
                        for vf in range(proc.num_vf_steps):
                            for slowdown in (1.0, 1.37):
                                for part in slices:
                                    assert proc.layers_latency_ms(
                                        part, precision, vf, slowdown
                                    ) == walk_ms(proc, part, precision, vf,
                                                 slowdown)
                                assert proc.layer_latencies_ms(
                                    layers, precision, vf, slowdown
                                ).tolist() == [
                                    layer_ms(proc, layer, precision, vf,
                                             slowdown)
                                    for layer in layers]
                                checked += 1
        assert checked > 500


class TestBusyPower:
    def test_top_step_is_rated_busy_power(self):
        assert _cpu().busy_power_at(-1) == pytest.approx(4000.0)

    def test_lower_step_draws_less(self):
        cpu = _cpu()
        assert cpu.busy_power_at(0) < cpu.busy_power_at(-1)

    def test_never_below_idle(self):
        cpu = _cpu()
        for index in range(cpu.num_vf_steps):
            assert cpu.busy_power_at(index) >= cpu.idle_power_mw

    def test_v2f_scaling_shape(self):
        """Dynamic power must scale as V^2 * f."""
        cpu = _cpu()
        step = cpu.vf_table[0]
        top = cpu.vf_table[-1]
        expected = 300.0 + (4000.0 - 300.0) * (
            (step.voltage_v / top.voltage_v) ** 2
            * (step.freq_mhz / top.freq_mhz)
        )
        assert cpu.busy_power_at(0) == pytest.approx(expected)


class TestValidation:
    def test_empty_vf_table_rejected(self):
        with pytest.raises(ConfigError):
            Processor(name="x", kind=ProcessorKind.CPU, vf_table=(),
                      peak_gmacs=1.0, precisions={Precision.FP32: 1.0},
                      busy_power_mw=100.0, idle_power_mw=10.0)

    def test_fp32_multiplier_must_be_one(self):
        with pytest.raises(ConfigError):
            Processor(name="x", kind=ProcessorKind.CPU,
                      vf_table=build_vf_table(2, 1000), peak_gmacs=1.0,
                      precisions={Precision.FP32: 2.0},
                      busy_power_mw=100.0, idle_power_mw=10.0)

    def test_busy_must_exceed_idle(self):
        with pytest.raises(ConfigError):
            Processor(name="x", kind=ProcessorKind.CPU,
                      vf_table=build_vf_table(2, 1000), peak_gmacs=1.0,
                      precisions={Precision.FP32: 1.0},
                      busy_power_mw=10.0, idle_power_mw=100.0)

    def test_default_efficiencies_filled_by_kind(self):
        gpu = _gpu()
        assert gpu.layer_efficiency[LayerType.CONV] > \
            gpu.layer_efficiency[LayerType.FC]

    def test_supports_dvfs(self):
        assert _cpu(steps=5).supports_dvfs
        single = Processor(
            name="dsp", kind=ProcessorKind.DSP,
            vf_table=build_vf_table(1, 750), peak_gmacs=40.0,
            precisions={Precision.INT8: 1.0},
            busy_power_mw=900.0, idle_power_mw=100.0,
        )
        assert not single.supports_dvfs

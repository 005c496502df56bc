"""Tests for the NeuroSurgeon baseline."""

import warnings

import numpy as np
import pytest

from repro.baselines.neurosurgeon import (
    LayerLatencyModel,
    NeurosurgeonScheduler,
)
from repro.common import ConfigError, make_rng
from repro.env.qos import use_case_for
from repro.hardware.devices import build_device, cloud_server
from repro.models.quantization import Precision
from tests.env.layer_walk import layer_ms


class TestLayerLatencyModel:
    def test_fits_linear_mac_relationship(self, mi8pro_device, zoo):
        cpu = mi8pro_device.soc.cpu
        layers = zoo["inception_v1"].layers
        model = LayerLatencyModel().fit(cpu, layers, Precision.FP32)
        actual = cpu.layer_latencies_ms(layers[:10], Precision.FP32)
        for layer, actual_ms in zip(layers[:10], actual):
            predicted = model.predict_layer(layer)
            assert predicted == pytest.approx(actual_ms, rel=0.35,
                                              abs=0.15)

    def test_noisy_fit_draws_per_layer_in_order(self, mi8pro_device, zoo):
        """The fit reads the scalar walk's per-layer latencies (``==``)
        and draws one noise sample per layer, in layer order."""
        cpu = mi8pro_device.soc.cpu
        layers = zoo["inception_v1"].layers
        model = LayerLatencyModel().fit(cpu, layers, Precision.FP32,
                                        rng=make_rng(3))
        rng = make_rng(3)
        by_kind = {}
        for layer in layers:
            measured = layer_ms(cpu, layer, Precision.FP32)
            measured *= float(np.exp(rng.normal(0, 0.03)))
            by_kind.setdefault(layer.kind, []).append((layer.macs,
                                                       measured))
        for kind, points in by_kind.items():
            macs, lats = (np.array(column) for column in zip(*points))
            if len(points) >= 2 and np.ptp(macs) > 0:
                expected = np.polyfit(macs, lats, 1)
            else:
                expected = (0.0, lats.mean())
            assert model._coeffs[kind] \
                == (float(expected[0]), float(expected[1]))

    def test_identical_macs_fit_without_warnings(self, zoo):
        """A kind whose layers all share one MAC count (ssd_mobilenet_v2's
        ten POOL layers) takes the intercept-only branch: fitting every
        mi8pro processor and the cloud server on every network raises
        no warning."""
        processors = [*build_device("mi8pro").soc.processors.values(),
                      *cloud_server().soc.processors.values()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for network in zoo.values():
                for processor in processors:
                    for precision in processor.precisions:
                        LayerLatencyModel().fit(processor, network.layers,
                                                precision, rng=make_rng(0))

    def test_predictions_positive(self, mi8pro_device, zoo):
        cpu = mi8pro_device.soc.cpu
        layers = zoo["mobilenet_v3"].layers
        model = LayerLatencyModel().fit(cpu, layers, Precision.FP32,
                                        rng=make_rng(0))
        assert (model.predict_layers(layers) > 0).all()

    def test_unfitted_rejected(self, zoo):
        with pytest.raises(ConfigError):
            LayerLatencyModel().predict_layer(zoo["mobilenet_v3"].layers[0])


class TestNeurosurgeonScheduler:
    @pytest.fixture()
    def trained(self, env, zoo):
        scheduler = NeurosurgeonScheduler()
        cases = [use_case_for(zoo[n])
                 for n in ("mobilenet_v3", "inception_v1", "resnet_50",
                           "mobilebert")]
        scheduler.train(env, cases, rng=make_rng(0))
        return scheduler, cases

    def test_plan_is_valid_split_point(self, env, trained):
        scheduler, cases = trained
        for case in cases:
            point = scheduler.plan(env, case, env.observe())
            assert 0 <= point <= len(case.network.layers)

    def test_offloads_heavy_network(self, env, trained):
        """ResNet-50 on a phone: NeuroSurgeon should ship (almost)
        everything to the cloud at strong signal."""
        scheduler, cases = trained
        resnet = next(c for c in cases if "resnet" in c.name)
        point = scheduler.plan(env, resnet, env.observe())
        assert point < len(resnet.network.layers) // 4

    def test_execute_produces_result(self, env, trained):
        scheduler, cases = trained
        result = scheduler.execute(env, cases[0])
        assert result.latency_ms > 0
        assert result.energy_mj > 0

    def test_weak_signal_moves_split_toward_local(self, mi8pro_device,
                                                  zoo, trained):
        from repro.env.environment import EdgeCloudEnvironment
        scheduler, cases = trained
        resnet = next(c for c in cases if "resnet" in c.name)
        strong_env = EdgeCloudEnvironment(mi8pro_device, scenario="S1",
                                          seed=0)
        weak_env = EdgeCloudEnvironment(mi8pro_device, scenario="S4",
                                        seed=0)
        strong_point = scheduler.plan(strong_env, resnet,
                                      strong_env.observe())
        weak_point = scheduler.plan(weak_env, resnet, weak_env.observe())
        assert weak_point >= strong_point

    def test_untrained_rejected(self, env, zoo):
        with pytest.raises(ConfigError):
            NeurosurgeonScheduler().plan(
                env, use_case_for(zoo["mobilenet_v3"]), env.observe()
            )

    def test_requires_cloud(self, mi8pro_device, zoo):
        from repro.env.environment import EdgeCloudEnvironment
        env = EdgeCloudEnvironment(mi8pro_device, cloud=False)
        with pytest.raises(ConfigError):
            NeurosurgeonScheduler().train(
                env, [use_case_for(zoo["mobilenet_v3"])]
            )

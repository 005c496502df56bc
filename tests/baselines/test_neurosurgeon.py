"""Tests for the NeuroSurgeon baseline."""

import itertools
import warnings

import numpy as np
import pytest

from repro.baselines.neurosurgeon import (
    LayerLatencyModel,
    NeurosurgeonScheduler,
    best_split,
)
from repro.common import ConfigError, make_rng
from repro.env.environment import EdgeCloudEnvironment
from repro.env.observation import Observation
from repro.env.qos import UseCase, use_case_for, use_cases_for_zoo
from repro.hardware.devices import build_device, cloud_server
from repro.models.quantization import Precision
from repro.wireless.profiles import default_wifi
from tests.baselines.split_loop import prefix_suffix, scalar_plan
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


class TestVectorPlanParity:
    """``plan`` (one numpy pass over train-time tables) against the
    scalar split loop over freshly refitted models."""

    QOS_MS = (0.5, 20.0, 50.0, 100.0, 400.0)  # 0.5 ms: nothing feasible
    RSSI_DBM = tuple(-40.0 - 2.0 * step for step in range(29))

    @pytest.mark.parametrize("device_name",
                             ("mi8pro", "galaxy_s10e", "moto_x_force"))
    def test_plan_matches_scalar_loop_over_grid(self, zoo, device_name):
        env = EdgeCloudEnvironment(build_device(device_name), seed=0)
        cases = use_cases_for_zoo(zoo)
        scheduler = NeurosurgeonScheduler()
        scheduler.train(env, cases, rng=make_rng(0))
        # Refit in train's order (local then remote per case) from the
        # same seed: the same per-layer predictions, computed afresh.
        rng = make_rng(0)
        cpu = env.device.soc.cpu
        remote_proc = env.cloud.soc.processor("gpu")
        busy_mw = cpu.busy_power_at(-1)
        base_mw = env.device.soc.platform_idle_mw
        chosen = set()
        for case in cases:
            layers = case.network.layers
            local_model = LayerLatencyModel().fit(cpu, layers,
                                                  Precision.FP32, rng=rng)
            remote_model = LayerLatencyModel().fit(remote_proc, layers,
                                                   Precision.FP32, rng=rng)
            local_prefix_ms, remote_suffix_ms = prefix_suffix(
                local_model.predict_layers(layers),
                remote_model.predict_layers(layers))
            for qos_ms in self.QOS_MS:
                use_case = UseCase(name=case.name, network=case.network,
                                   qos_ms=qos_ms)
                for rssi_dbm in self.RSSI_DBM:
                    observation = Observation(rssi_wlan_dbm=rssi_dbm)
                    expected = scalar_plan(
                        local_prefix_ms, remote_suffix_ms,
                        case.network.transfer_bytes_at, env.wifi, rssi_dbm,
                        busy_mw, base_mw, qos_ms)
                    point = scheduler.plan(env, use_case, observation)
                    assert point == expected
                    assert type(point) is int
                    chosen.add((qos_ms, point))
        # The grid reaches interior splits, both ends, and the
        # all-infeasible fallback.
        points = {point for _, point in chosen}
        assert len(points) > 3
        assert {qos for qos, _ in chosen} == set(self.QOS_MS)

    def test_all_infeasible_falls_back_to_min_energy(self):
        link = default_wifi()
        local_prefix_ms = np.array([0.0, 30.0, 60.0, 90.0])
        remote_suffix_ms = np.array([50.0, 40.0, 20.0, 0.0])
        wire_bytes = np.array([4e5, 1e5, 5e4, 0.0])
        args = (link, -60.0, 2000.0, 800.0)
        for qos_ms in (1.0, 1e4):
            expected = scalar_plan(
                list(local_prefix_ms), list(remote_suffix_ms),
                wire_bytes.__getitem__, *args, qos_ms)
            assert best_split(local_prefix_ms, remote_suffix_ms,
                              wire_bytes, *args, qos_ms) == expected

    def test_equal_energy_ties_take_the_first_point(self):
        """Points 1 and 2 (and 4 and 5) are identical, so their energies
        tie exactly; the first of a tie wins, feasible (QoS 65 ms) or
        not (1 ms)."""
        link = default_wifi()
        local_prefix_ms = np.array([0.0, 10.0, 10.0, 25.0, 40.0, 40.0, 70.0])
        remote_suffix_ms = np.array([30.0, 20.0, 20.0, 12.0, 5.0, 5.0, 0.0])
        wire_bytes = np.array([6e5, 2e4, 2e4, 8e4, 1e3, 1e3, 0.0])
        winners = set()
        for qos_ms, rssi_dbm in itertools.product((1.0, 65.0, 1e4),
                                                  (-50.0, -70.0, -90.0)):
            for busy_mw, base_mw in ((1e-9, 1e-9), (2500.0, 900.0)):
                args = (link, rssi_dbm, busy_mw, base_mw, qos_ms)
                expected = scalar_plan(
                    list(local_prefix_ms), list(remote_suffix_ms),
                    wire_bytes.__getitem__, *args)
                assert best_split(local_prefix_ms, remote_suffix_ms,
                                  wire_bytes, *args) == expected
                winners.add((qos_ms, expected))
        assert (1.0, 1) in winners and (65.0, 1) in winners
        assert not {point for _, point in winners} & {2, 5}

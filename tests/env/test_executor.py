"""Tests for the execution simulator (local/remote/partitioned).

The whole-model cases run through the test-side layer-walk reference
(``tests/env/layer_walk.py``), which finishes through the program's
eq. (1)-(4) finishers.
"""

import pytest

from repro.common import ConfigError, make_rng
from repro.env.executor import (
    NoiseConfig,
    partitioned_execution,
    pipelined_plan,
)
from repro.env.target import ExecutionTarget, Location
from repro.hardware.devices import build_device, cloud_server
from repro.interference.corunner import CoRunnerLoad
from repro.interference.model import InterferenceModel
from repro.models.accuracy import DEFAULT_ACCURACY
from repro.models.quantization import Precision
from repro.wireless.profiles import default_wifi
from tests.env.layer_walk import local_execution, remote_execution


def _terms(device, remote=None):
    """A ``terms(network, target)`` table source built straight from
    the processors (no cost engine)."""
    def terms(network, target):
        system = device if target.location is Location.LOCAL else remote
        return system.soc.processor(target.role).layer_terms(
            network.layers, target.precision)
    return terms


@pytest.fixture()
def device():
    return build_device("mi8pro")


@pytest.fixture()
def interference(device):
    return InterferenceModel(thermal=device.soc.thermal)


@pytest.fixture()
def quiet():
    return CoRunnerLoad()


def _local(role="cpu", precision=Precision.FP32, vf=-1):
    return ExecutionTarget(Location.LOCAL, role, precision, vf)


class TestLocalExecution:
    def test_deterministic_without_rng(self, device, interference, quiet,
                                       zoo):
        net = zoo["mobilenet_v3"]
        a = local_execution(device, net, _local(), quiet, interference,
                            DEFAULT_ACCURACY)
        b = local_execution(device, net, _local(), quiet, interference,
                            DEFAULT_ACCURACY)
        assert a.latency_ms == b.latency_ms
        assert a.energy_mj == b.energy_mj

    def test_estimate_equals_truth_without_noise(self, device,
                                                 interference, quiet, zoo):
        result = local_execution(device, zoo["mobilenet_v3"], _local(),
                                 quiet, interference, DEFAULT_ACCURACY)
        assert result.energy_mj == pytest.approx(
            result.estimated_energy_mj
        )

    def test_noise_perturbs_measurements(self, device, interference,
                                         quiet, zoo):
        rng = make_rng(0)
        a = local_execution(device, zoo["mobilenet_v3"], _local(), quiet,
                            interference, DEFAULT_ACCURACY, rng=rng)
        b = local_execution(device, zoo["mobilenet_v3"], _local(), quiet,
                            interference, DEFAULT_ACCURACY, rng=rng)
        assert a.latency_ms != b.latency_ms

    def test_int8_faster_than_fp32_on_cpu(self, device, interference,
                                          quiet, zoo):
        net = zoo["inception_v1"]
        fp32 = local_execution(device, net, _local(), quiet, interference,
                               DEFAULT_ACCURACY)
        int8 = local_execution(device, net,
                               _local(precision=Precision.INT8), quiet,
                               interference, DEFAULT_ACCURACY)
        assert int8.latency_ms < fp32.latency_ms
        assert int8.energy_mj < fp32.energy_mj

    def test_lower_vf_slower_for_same_target(self, device, interference,
                                             quiet, zoo):
        net = zoo["mobilenet_v3"]
        top = local_execution(device, net, _local(vf=-1), quiet,
                              interference, DEFAULT_ACCURACY)
        low = local_execution(device, net, _local(vf=0), quiet,
                              interference, DEFAULT_ACCURACY)
        assert low.latency_ms > top.latency_ms

    def test_interference_slows_and_costs(self, device, interference,
                                          zoo):
        net = zoo["mobilenet_v3"]
        quiet_result = local_execution(device, net, _local(),
                                       CoRunnerLoad(), interference,
                                       DEFAULT_ACCURACY)
        busy_result = local_execution(
            device, net, _local(), CoRunnerLoad(cpu_util=0.9,
                                                mem_util=0.3),
            interference, DEFAULT_ACCURACY,
        )
        assert busy_result.latency_ms > 1.5 * quiet_result.latency_ms
        assert busy_result.energy_mj > quiet_result.energy_mj

    def test_contention_power_surcharge_hits_truth_only(self, device,
                                                        interference, zoo):
        busy = local_execution(
            device, zoo["mobilenet_v3"], _local(),
            CoRunnerLoad(cpu_util=0.0, mem_util=0.9), interference,
            DEFAULT_ACCURACY,
        )
        # The estimator's pre-measured power tables miss the co-runner's
        # bus traffic, so truth > estimate (the 7.3% MAPE source).
        assert busy.energy_mj > busy.estimated_energy_mj

    def test_accuracy_from_table(self, device, interference, quiet, zoo):
        result = local_execution(device, zoo["mobilenet_v3"],
                                 _local(precision=Precision.INT8), quiet,
                                 interference, DEFAULT_ACCURACY)
        assert result.accuracy_pct == DEFAULT_ACCURACY.lookup(
            "mobilenet_v3", Precision.INT8
        )

    def test_remote_target_rejected(self, device, interference, quiet,
                                    zoo):
        with pytest.raises(ConfigError):
            local_execution(device, zoo["mobilenet_v3"],
                            ExecutionTarget(Location.CLOUD, "gpu",
                                            Precision.FP32),
                            quiet, interference, DEFAULT_ACCURACY)


class TestRemoteExecution:
    def _run(self, zoo, net="resnet_50", rssi=-55.0, load=None,
             interference=None):
        device = build_device("mi8pro")
        target = ExecutionTarget(Location.CLOUD, "gpu", Precision.FP32)
        return remote_execution(
            device, cloud_server(), zoo[net], target, default_wifi(),
            rssi, DEFAULT_ACCURACY, load=load, interference=interference,
        )

    def test_latency_decomposition(self, zoo):
        result = self._run(zoo)
        detail = result.detail
        assert result.latency_ms == pytest.approx(
            detail["tx_ms"] + detail["rx_ms"] + detail["rtt_ms"]
            + detail["remote_ms"]
        )

    def test_weak_signal_slower_and_costlier(self, zoo):
        strong = self._run(zoo, rssi=-55.0)
        weak = self._run(zoo, rssi=-86.0)
        assert weak.latency_ms > strong.latency_ms
        assert weak.energy_mj > strong.energy_mj

    def test_tiny_input_cheap_to_ship(self, zoo):
        """MobileBERT's token input makes cloud offload dominant."""
        bert = self._run(zoo, net="mobilebert")
        vision = self._run(zoo, net="resnet_50")
        assert bert.detail["tx_ms"] < vision.detail["tx_ms"]

    def test_corunner_slows_transmission(self, zoo):
        device = build_device("mi8pro")
        model = InterferenceModel(thermal=device.soc.thermal)
        quiet = self._run(zoo, load=CoRunnerLoad(), interference=model)
        busy = self._run(zoo, load=CoRunnerLoad(cpu_util=0.9),
                         interference=model)
        assert busy.detail["tx_ms"] > quiet.detail["tx_ms"]

    def test_local_target_rejected(self, zoo):
        device = build_device("mi8pro")
        with pytest.raises(ConfigError):
            remote_execution(device, cloud_server(), zoo["resnet_50"],
                             _local(), default_wifi(), -55.0,
                             DEFAULT_ACCURACY)


class TestPartitionedExecution:
    def _run(self, zoo, point, net="inception_v1", load=None):
        device = build_device("mi8pro")
        cloud = cloud_server()
        local = ExecutionTarget(Location.LOCAL, "cpu", Precision.FP32,
                                device.soc.cpu.num_vf_steps - 1)
        remote = ExecutionTarget(Location.CLOUD, "gpu", Precision.FP32)
        return partitioned_execution(
            device, cloud, zoo[net], point, local, remote,
            default_wifi(), -55.0,
            load if load is not None else CoRunnerLoad(),
            InterferenceModel(thermal=device.soc.thermal),
            DEFAULT_ACCURACY, _terms(device, cloud),
        )

    def test_corunner_slows_split_radio_path(self, zoo):
        """Regression: the split path must pay transmission_slowdown.

        The NeuroSurgeon radio path used to ignore co-runner contention
        entirely, making splits spuriously cheap under S2/S3."""
        net = zoo["inception_v1"]
        point = len(net.layers) // 2
        quiet = self._run(zoo, point)
        busy = self._run(zoo, point, load=CoRunnerLoad(cpu_util=0.9,
                                                       mem_util=0.3))
        assert busy.detail["tx_ms"] > quiet.detail["tx_ms"]
        assert busy.latency_ms > quiet.latency_ms

    def test_mid_split_combines_both(self, zoo):
        net = zoo["inception_v1"]
        result = self._run(zoo, len(net.layers) // 2)
        assert result.detail["local_ms"] > 0
        assert result.detail["remote_ms"] > 0
        assert "split@" in result.target_key

    def test_early_split_ships_more_than_late(self, zoo):
        early = self._run(zoo, 2)
        late = self._run(zoo, 60)
        assert early.detail["wire_bytes"] > late.detail["wire_bytes"]


class TestPipelinedExecution:
    def _segments(self, device, net, split):
        dsp = ExecutionTarget(Location.LOCAL, "dsp", Precision.INT8, 0)
        cpu = ExecutionTarget(Location.LOCAL, "cpu", Precision.INT8,
                              device.soc.cpu.num_vf_steps - 1)
        return [(split, dsp), (len(net.layers) - split, cpu)]

    def _run(self, device, net, segments):
        return pipelined_plan(device, net, segments, DEFAULT_ACCURACY,
                              _terms(device))(
            CoRunnerLoad(), InterferenceModel(thermal=device.soc.thermal))

    def test_covers_all_layers_or_rejects(self, zoo, device):
        net = zoo["mobilenet_v3"]
        bad = self._segments(device, net, 10)[:1]
        with pytest.raises(ConfigError):
            self._run(device, net, bad)

    def test_hop_overhead_charged(self, zoo, device):
        net = zoo["mobilenet_v3"]
        split = self._run(device, net, self._segments(device, net, 20))
        cpu_only = self._run(
            device, net,
            [(len(net.layers),
              ExecutionTarget(Location.LOCAL, "cpu", Precision.INT8,
                              device.soc.cpu.num_vf_steps - 1))],
        )
        assert split.detail["segments"] == 2.0
        assert cpu_only.detail["segments"] == 1.0

    def test_accuracy_is_worst_precision(self, zoo, device):
        net = zoo["mobilenet_v3"]
        result = self._run(device, net, self._segments(device, net, 20))
        assert result.accuracy_pct == DEFAULT_ACCURACY.lookup(
            "mobilenet_v3", Precision.INT8
        )

    def test_remote_segment_rejected(self, zoo, device):
        net = zoo["mobilenet_v3"]
        cloud = ExecutionTarget(Location.CLOUD, "gpu", Precision.FP32)
        with pytest.raises(ConfigError):
            self._run(device, net, [(len(net.layers), cloud)])


class TestNoiseConfig:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            NoiseConfig(latency_sigma=-0.1)

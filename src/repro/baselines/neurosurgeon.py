"""NeuroSurgeon baseline ([53], ASPLOS'17).

NeuroSurgeon partitions a DNN between the mobile device and the cloud at
layer granularity: per-layer-type regression models predict each layer's
latency/energy on the device and on the server, the wire cost of every
candidate split point is computed from the link bandwidth, and the split
with the best predicted mobile energy (subject to the latency target) is
chosen.

Fidelity notes:

- the per-layer predictors are linear in layer MACs per (processor, layer
  type), fitted on profiled executions — regression-based, exactly the
  class of approach Section III-C shows failing under runtime variance;
- the device-side partition runs on the mobile CPU at FP32 (the setting
  of the original paper), so NeuroSurgeon never exploits co-processors,
  DVFS, or quantization — the structural reason AutoScale beats it by
  ~1.2x in Fig. 9;
- bandwidth is taken from the *current* RSSI reading (the original system
  re-evaluates per query), but the co-runner interference on the local
  partition is invisible to its predictor.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Scheduler
from repro.common import ConfigError
from repro.env.target import ExecutionTarget, Location
from repro.models.quantization import Precision

__all__ = ["LayerLatencyModel", "NeurosurgeonScheduler"]


class LayerLatencyModel:
    """Per-(layer type) linear latency model: t = a * macs + b.

    Fitted against a processor's profiled per-layer latencies; one (a, b)
    pair per layer type, which is exactly the regression family the
    original NeuroSurgeon uses per layer category.
    """

    def __init__(self):
        self._coeffs = {}

    def fit(self, processor, layers, precision, samples_per_layer=3,
            rng=None, noise_pct=0.03):
        """Fit from (optionally noisy) profiled layer latencies."""
        by_kind = {}
        latencies = processor.layer_latencies_ms(layers, precision)
        for layer, measured in zip(layers, latencies.tolist()):
            if rng is not None and noise_pct > 0:
                measured *= float(np.exp(rng.normal(0, noise_pct)))
            by_kind.setdefault(layer.kind, []).append((layer.macs, measured))
        for kind, points in by_kind.items():
            macs = np.array([p[0] for p in points])
            lats = np.array([p[1] for p in points])
            # Peak-to-peak, not std: identical MACs can leave a float
            # std of ~1e-11, which polyfit cannot condition.
            if len(points) >= 2 and np.ptp(macs) > 0:
                a, b = np.polyfit(macs, lats, 1)
            else:
                a, b = 0.0, float(lats.mean())
            self._coeffs[kind] = (float(a), float(b))
        return self

    def predict_layer(self, layer):
        if layer.kind in self._coeffs:
            a, b = self._coeffs[layer.kind]
        elif self._coeffs:
            # Unseen type: fall back to the average intercept.
            a = 0.0
            b = float(np.mean([c[1] for c in self._coeffs.values()]))
        else:
            raise ConfigError("layer model not fitted")
        return max(1e-4, a * layer.macs + b)

    def predict_layers(self, layers):
        return np.array([self.predict_layer(layer) for layer in layers])


class NeurosurgeonScheduler(Scheduler):
    """Layer-split scheduler between the local CPU and the cloud GPU."""

    name = "neurosurgeon"

    def __init__(self):
        self._local_models = {}
        self._remote_models = {}
        self._local_target = None
        self._remote_target = None

    def train(self, environment, use_cases, rng=None):
        """Fit the per-layer models on both sides of the split."""
        device = environment.device
        cloud = environment.cloud
        if cloud is None:
            raise ConfigError("NeuroSurgeon needs a cloud system")
        cpu = device.soc.cpu
        remote_role = "gpu" if cloud.soc.has("gpu") else "cpu"
        remote_proc = cloud.soc.processor(remote_role)
        self._local_target = ExecutionTarget(
            Location.LOCAL, "cpu", Precision.FP32,
            cpu.num_vf_steps - 1,
        )
        self._remote_target = ExecutionTarget(
            Location.CLOUD, remote_role, Precision.FP32
        )
        for use_case in use_cases:
            layers = use_case.network.layers
            self._local_models[use_case.network.name] = \
                LayerLatencyModel().fit(cpu, layers, Precision.FP32,
                                        rng=rng)
            self._remote_models[use_case.network.name] = \
                LayerLatencyModel().fit(remote_proc, layers,
                                        Precision.FP32, rng=rng)

    def plan(self, environment, use_case, observation):
        """The predicted-best split point for the current conditions."""
        name = use_case.network.name
        if name not in self._local_models:
            raise ConfigError(f"{self.name} not trained for {name}")
        network = use_case.network
        device = environment.device
        link = environment.wifi
        rssi_dbm = observation.rssi_wlan_dbm
        ms_per_byte = (
            link.transfer_ms(1.0, rssi_dbm)
        )
        rtt = link.effective_rtt_ms(rssi_dbm)

        local_layer = self._local_models[name].predict_layers(network.layers)
        remote_layer = self._remote_models[name].predict_layers(
            network.layers
        )
        local_prefix = np.concatenate([[0.0], np.cumsum(local_layer)])
        remote_suffix = np.concatenate(
            [np.cumsum(remote_layer[::-1])[::-1], [0.0]]
        )

        cpu = device.soc.cpu
        busy_mw = cpu.busy_power_at(-1)
        base_mw = device.soc.platform_idle_mw
        tx_mw = link.tx_power_mw(rssi_dbm)

        best_point, best_energy_mj, best_latency_ms = None, None, None
        num_layers = len(network.layers)
        for point in range(num_layers + 1):
            wire = network.transfer_bytes_at(point)
            tx_ms = wire * ms_per_byte
            remote_ms = remote_suffix[point]
            comm_ms = (tx_ms + rtt) if point < num_layers else 0.0
            latency_ms = local_prefix[point] + comm_ms + remote_ms
            energy_mj = (
                busy_mw * local_prefix[point]
                + tx_mw * tx_ms
                + base_mw * latency_ms
            ) / 1000.0
            if point < num_layers:
                energy_mj += link.tail_energy_mj()
            feasible = latency_ms <= use_case.qos_ms
            rank = (not feasible, energy_mj)
            if best_point is None or rank < (not (best_latency_ms
                                                  <= use_case.qos_ms),
                                             best_energy_mj):
                best_point, best_energy_mj, best_latency_ms = \
                    point, energy_mj, latency_ms
        return best_point

    def select(self, environment, use_case, observation):
        """Returns the split plan (point, local target, remote target)."""
        point = self.plan(environment, use_case, observation)
        return point, self._local_target, self._remote_target

    def execute(self, environment, use_case, observation=None):
        if observation is None:
            observation = environment.observe()
        point, local_target, remote_target = self.select(
            environment, use_case, observation
        )
        return environment.execute_split(
            use_case.network, point, local_target, remote_target,
            observation,
        )

"""Feature encoding and profiling-dataset collection for the ML baselines.

The prediction-based approaches of Section III-C all consume the same raw
information AutoScale does — network characteristics, runtime variance,
and the candidate execution target — encoded as a flat numeric vector.
Regression baselines predict log-energy and log-latency from the full
(context + action) vector; classification baselines predict the optimal
target directly from the context part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.common import ConfigError, make_rng
from repro.env.target import Location
from repro.models.quantization import Precision

__all__ = [
    "CONTEXT_DIM",
    "ACTION_DIM",
    "PAIR_DIM",
    "encode_context",
    "encode_action",
    "encode_actions",
    "encode_pairs",
    "vf_fraction_for",
    "Standardizer",
    "ProfilingDataset",
    "collect_dataset",
    "collect_nominal_dataset",
]

_LOCATIONS = (Location.LOCAL, Location.CLOUD, Location.CONNECTED)
_ROLES = ("cpu", "gpu", "dsp", "npu")
_PRECISIONS = (Precision.FP32, Precision.FP16, Precision.INT8)

CONTEXT_DIM = 10
ACTION_DIM = len(_LOCATIONS) + len(_ROLES) + len(_PRECISIONS) + 2
PAIR_DIM = CONTEXT_DIM + ACTION_DIM + 16


def _weakness(rssi_dbm):
    """Logistic 'how dead is this link' transform (matches the radio
    model's knee around -78 dBm); linear models cannot learn the RSSI
    collapse from raw dBm values."""
    return 1.0 / (1.0 + np.exp((rssi_dbm + 78.0) / 3.5))


def encode_context(network, observation):
    """The Table-I readings, plus transforms linear models can use.

    MAC count enters in log scale (it spans ~20x across the zoo) and the
    two RSSI readings additionally enter through the logistic weakness
    transform.
    """
    return np.array([
        network.num_conv,
        network.num_fc,
        network.num_rc,
        np.log1p(network.mega_macs),
        observation.cpu_util,
        observation.mem_util,
        observation.rssi_wlan_dbm,
        observation.rssi_p2p_dbm,
        _weakness(observation.rssi_wlan_dbm),
        _weakness(observation.rssi_p2p_dbm),
    ], dtype=float)


def encode_action(target, vf_fraction=None):
    """One-hot location/role/precision plus the DVFS position.

    ``vf_fraction`` is the V/F step as a fraction of the processor's
    range; remote targets (full clock) use 1.0.  Without it we fall back
    to a coarse per-step scale.
    """
    vec = np.zeros(ACTION_DIM, dtype=float)
    vec[_LOCATIONS.index(target.location)] = 1.0
    vec[len(_LOCATIONS) + _ROLES.index(target.role)] = 1.0
    vec[len(_LOCATIONS) + len(_ROLES)
        + _PRECISIONS.index(target.precision)] = 1.0
    if vf_fraction is None:
        vf_fraction = 1.0 if target.vf_index < 0 \
            else min(1.0, 0.3 + 0.7 * target.vf_index / 22.0)
    vec[-2] = vf_fraction
    vec[-1] = np.log(max(vf_fraction, 0.05))
    return vec


def vf_fraction_for(target, environment):
    """The target's clock as a fraction of its processor's peak."""
    if target.location is not Location.LOCAL or environment is None:
        return 1.0
    proc = environment.device.soc.processor(target.role)
    step = proc.vf_table[target.vf_index]
    return step.freq_mhz / proc.max_freq_mhz


#: Per-(device, target-list) action-encoding matrices.  Action encodings
#: depend only on the target and the device's V/F tables, so every
#: observation of a sweep reuses the same rows; the key is cheap (string
#: tuple) and the set of distinct target lists per process is tiny.
_ACTION_MATRIX_CACHE = {}


def encode_actions(targets, environment=None):
    """Stacked :func:`encode_action` rows for a target list, memoized."""
    device_name = (environment.device.name
                   if environment is not None else None)
    key = (device_name, tuple(target.key for target in targets))
    cached = _ACTION_MATRIX_CACHE.get(key)
    if cached is None:
        cached = np.array([
            encode_action(target, vf_fraction_for(target, environment))
            for target in targets
        ])
        cached.flags.writeable = False
        _ACTION_MATRIX_CACHE[key] = cached
    return cached


def encode_pairs(network, observation, targets, environment=None):
    """Full feature vectors for (context, action) regression, one row
    per target.

    Returns a ``(len(targets), PAIR_DIM)`` matrix: the shared context
    block, the memoized :func:`encode_actions` block, and the
    interaction terms that make log-energy/log-latency roughly linear
    in the features — workload size crossed with the executing engine,
    link weakness crossed with the offload path, and co-runner load
    crossed with local execution.  Every interaction is a
    scalar-times-column product, so a row is bitwise what a one-target
    scalar walk computes.
    """
    actions = encode_actions(targets, environment)
    context = encode_context(network, observation)
    log_macs = context[3]
    weak_wlan = context[8]
    weak_p2p = context[9]
    is_local = actions[:, 0]
    is_cloud = actions[:, 1]
    is_connected = actions[:, 2]
    roles_start = len(_LOCATIONS)
    precisions_start = roles_start + len(_ROLES)
    role_onehot = actions[:, roles_start:precisions_start]
    precision_onehot = actions[:, precisions_start:
                               precisions_start + len(_PRECISIONS)]
    log_vf = actions[:, -1]
    interactions = np.column_stack([
        log_macs * is_local,
        log_macs * is_cloud,
        log_macs * is_connected,
        log_macs * role_onehot[:, 0],
        log_macs * role_onehot[:, 1],
        log_macs * role_onehot[:, 2],
        log_macs * role_onehot[:, 3],
        log_macs * precision_onehot[:, 0],
        log_macs * precision_onehot[:, 1],
        log_macs * precision_onehot[:, 2],
        log_macs * log_vf,
        weak_wlan * is_cloud,
        weak_p2p * is_connected,
        observation.cpu_util * is_local,
        observation.mem_util * is_local,
        network.num_fc * role_onehot[:, 1],
    ])
    context_block = np.broadcast_to(context, (len(actions), CONTEXT_DIM))
    return np.hstack([context_block, actions, interactions])


class Standardizer:
    """Column-wise (x - mean) / std with constant-column protection."""

    def __init__(self):
        self.mean_ = None
        self.std_ = None

    def fit(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ConfigError("expected a 2-D design matrix")
        self.mean_ = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        std[std == 0.0] = 1.0
        self.std_ = std
        return self

    def transform(self, matrix):
        if self.mean_ is None:
            raise ConfigError("standardizer not fitted")
        return (np.asarray(matrix, dtype=float) - self.mean_) / self.std_

    def fit_transform(self, matrix):
        return self.fit(matrix).transform(matrix)


@dataclass
class ProfilingDataset:
    """Measured (features -> energy/latency) samples plus bookkeeping."""

    features: np.ndarray
    energy_mj: np.ndarray
    latency_ms: np.ndarray
    contexts: np.ndarray
    target_keys: List[str]
    use_case_names: List[str]

    def __post_init__(self):
        num_samples = len(self.energy_mj)
        columns = (self.features, self.latency_ms, self.contexts,
                   self.target_keys, self.use_case_names)
        if any(len(column) != num_samples for column in columns):
            raise ConfigError("profiling dataset columns disagree in length")
        for name, values in (("energy_mj", self.energy_mj),
                             ("latency_ms", self.latency_ms)):
            values = np.asarray(values, dtype=float)
            if values.size and (not np.all(np.isfinite(values))
                                or np.any(values <= 0)):
                raise ConfigError(
                    f"profiling dataset {name} must be finite and positive"
                )

    def __len__(self):
        return len(self.energy_mj)


def collect_dataset(environment, use_cases, samples_per_case=40, rng=None):
    """Profile the environment: random (use case, target) executions.

    This plays the role of the measurement campaign the prediction-based
    approaches are fitted on.  Executions are *noisy* (they are real
    measurements in the paper) and advance the environment clock, so
    dynamic scenarios contribute time-varying contexts.
    """
    if samples_per_case < 1:
        raise ConfigError("samples_per_case must be >= 1")
    rng = make_rng(rng)
    targets = environment.targets()
    rows, energies, latencies, contexts = [], [], [], []
    keys, names = [], []
    for use_case in use_cases:
        for _ in range(samples_per_case):
            observation = environment.observe()
            index = int(rng.integers(len(targets)))
            target = targets[index]
            result = environment.execute(use_case.network, target,
                                         observation)
            rows.append(encode_pairs(use_case.network, observation, targets,
                                     environment)[index])
            contexts.append(encode_context(use_case.network, observation))
            energies.append(result.energy_mj)
            latencies.append(result.latency_ms)
            keys.append(target.key)
            names.append(use_case.name)
    return ProfilingDataset(
        features=np.array(rows),
        energy_mj=np.array(energies),
        latency_ms=np.array(latencies),
        contexts=np.array(contexts),
        target_keys=keys,
        use_case_names=names,
    )


#: Virtual think-time between profiled contexts (matches the serving
#: loop's inter-arrival gap) so dynamic scenarios keep evolving while a
#: nominal profiling campaign walks its contexts.
_PROFILE_STEP_MS = 150.0


def collect_nominal_dataset(environment, use_cases, contexts_per_case=8):
    """Profile the *nominal* model densely: every target, per context.

    Label generation for prediction baselines against the deterministic
    nominal model (what the oracle searches): one ``estimate_all`` sweep
    per sampled context covers the whole action space, so a campaign of
    ``contexts_per_case`` contexts yields ``contexts * len(targets())``
    exactly-labeled rows at the cost of a handful of vectorized sweeps —
    no per-target scalar ``estimate`` loop.
    """
    if contexts_per_case < 1:
        raise ConfigError("contexts_per_case must be >= 1")
    targets = environment.targets()
    feature_blocks, context_rows = [], []
    energies, latencies, keys, names = [], [], [], []
    target_keys = [target.key for target in targets]
    for use_case in use_cases:
        for _ in range(contexts_per_case):
            observation = environment.observe()
            sweep = environment.estimate_all(use_case.network, observation)
            feature_blocks.append(
                encode_pairs(use_case.network, observation, targets,
                             environment)
            )
            context = encode_context(use_case.network, observation)
            context_rows.append(
                np.broadcast_to(context, (len(targets), CONTEXT_DIM))
            )
            energies.append(sweep.energy_mj)
            latencies.append(sweep.latency_ms)
            keys.extend(target_keys)
            names.extend([use_case.name] * len(targets))
            environment.advance_clock(_PROFILE_STEP_MS)
    return ProfilingDataset(
        features=np.vstack(feature_blocks),
        energy_mj=np.concatenate(energies),
        latency_ms=np.concatenate(latencies),
        contexts=np.vstack(context_rows),
        target_keys=keys,
        use_case_names=names,
    )

"""Split and pipelined executions against the layer-walk references.

``execute_split`` and ``execute_pipelined`` time each head, tail and
segment as a sum over a row range of the cost engine's cached term
tables.  ``tests/env/layer_walk.py`` walks the same slices layer by
layer; every split point of every network and every MOSAIC plan must
match it with ``==``, noise-free and with jitters drawn from the same
RNG stream.
"""

import numpy as np
import pytest

from repro.baselines.mosaic import MosaicScheduler
from repro.common import make_rng
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_cases_for_zoo
from repro.env.target import ExecutionTarget, Location
from repro.hardware.devices import build_device
from repro.interference.corunner import CoRunnerLoad
from repro.models.quantization import Precision
from tests.env.layer_walk import pipelined_execution, split_execution

DEVICES = ("mi8pro", "galaxy_s10e", "moto_x_force")

_FIELDS = ("latency_ms", "energy_mj", "estimated_energy_mj",
           "accuracy_pct", "target_key", "detail")


def _assert_same(result, reference):
    for field in _FIELDS:
        assert getattr(result, field) == reference[field], field


def _environment(device_name):
    # S2's co-runner slows the local slices (slowdown > 1).
    return EdgeCloudEnvironment(build_device(device_name), scenario="S2",
                                seed=5)


def _split_pairs(env):
    """NeuroSurgeon's pair plus a co-processor head at its lowest V/F
    step shipping to the connected device."""
    soc = env.device.soc
    pairs = [(ExecutionTarget(Location.LOCAL, "cpu", Precision.FP32,
                              soc.cpu.num_vf_steps - 1),
              ExecutionTarget(Location.CLOUD, "gpu", Precision.FP32))]
    if soc.has("gpu"):
        pairs.append((ExecutionTarget(Location.LOCAL, "gpu", Precision.FP16,
                                      0),
                      ExecutionTarget(Location.CONNECTED, "cpu",
                                      Precision.FP32)))
    return pairs


def _corunner_load(observation):
    # The references get a CoRunnerLoad; the environment passes the
    # Observation itself, which carries the same two fields.
    return CoRunnerLoad(cpu_util=observation.cpu_util,
                        mem_util=observation.mem_util)


def _reference_rng(env):
    rng = np.random.default_rng()
    rng.bit_generator.state = env.rng.bit_generator.state
    return rng


@pytest.mark.parametrize("device_name", DEVICES)
def test_execute_split_matches_walk_at_every_point(zoo, device_name):
    env = _environment(device_name)
    observation = env.observe()
    load = _corunner_load(observation)
    checked = 0
    for network in zoo.values():
        for local, remote in _split_pairs(env):
            remote_system, link = env._remote_setup(remote)
            rssi_dbm = env._rssi_for(remote, observation)
            for point in range(1, len(network.layers)):
                reference = split_execution(
                    env.device, remote_system, network, point, local,
                    remote, link, rssi_dbm, load, env.interference,
                    env.accuracy, noise=env.noise)
                _assert_same(env.execute_split(
                    network, point, local, remote, observation,
                    deterministic=True), reference)
                rng = _reference_rng(env)
                reference = split_execution(
                    env.device, remote_system, network, point, local,
                    remote, link, rssi_dbm, load, env.interference,
                    env.accuracy, rng=rng, noise=env.noise)
                _assert_same(env.execute_split(
                    network, point, local, remote, observation), reference)
                assert env.rng.bit_generator.state \
                    == rng.bit_generator.state
                checked += 1
    assert checked > 500


@pytest.mark.parametrize("device_name", DEVICES)
def test_mosaic_plans_match_walk(zoo, device_name):
    env = _environment(device_name)
    cases = use_cases_for_zoo(zoo)
    scheduler = MosaicScheduler()
    scheduler.train(env, cases, rng=make_rng(0))
    observation = env.observe()
    load = _corunner_load(observation)
    segment_counts = set()
    for case in cases:
        segments = scheduler.select(env, case, observation)
        segment_counts.add(len(segments))
        reference = pipelined_execution(
            env.device, case.network, segments, load, env.interference,
            env.accuracy, noise=env.noise)
        _assert_same(env.execute_pipelined(case.network, segments,
                                           observation, deterministic=True),
                     reference)
        rng = _reference_rng(env)
        reference = pipelined_execution(
            env.device, case.network, segments, load, env.interference,
            env.accuracy, rng=rng, noise=env.noise)
        _assert_same(env.execute_pipelined(case.network, segments,
                                           observation), reference)
        assert env.rng.bit_generator.state == rng.bit_generator.state
    # The plans exercise hand-offs, not only single-engine runs.
    assert max(segment_counts) >= 2


@pytest.mark.parametrize("device_name", DEVICES)
def test_mosaic_repeats_match_walk_under_varying_load(zoo, device_name):
    """Each plan's constants are resolved once and reused: repeated
    runs under a dynamic co-runner (a new load every inference) still
    match the walk, seeded and noise-free, and reuse one resolved plan."""
    env = EdgeCloudEnvironment(build_device(device_name), scenario="D2",
                               seed=9)
    cases = use_cases_for_zoo(zoo)[:4]
    scheduler = MosaicScheduler()
    scheduler.train(env, cases, rng=make_rng(0))
    for case in cases:
        segments = scheduler.select(env, case, None)
        run = env.cost_engine.pipeline(case.network, segments)
        for _ in range(3):
            observation = env.observe()
            load = _corunner_load(observation)
            reference = pipelined_execution(
                env.device, case.network, segments, load, env.interference,
                env.accuracy, noise=env.noise)
            _assert_same(env.execute_pipelined(
                case.network, segments, observation, deterministic=True),
                reference)
            rng = _reference_rng(env)
            reference = pipelined_execution(
                env.device, case.network, segments, load, env.interference,
                env.accuracy, rng=rng, noise=env.noise)
            _assert_same(env.execute_pipelined(case.network, segments,
                                               observation), reference)
            assert env.rng.bit_generator.state == rng.bit_generator.state
        assert env.cost_engine.pipeline(case.network, list(segments)) is run

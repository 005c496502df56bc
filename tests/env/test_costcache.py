"""Tests for the batched nominal-cost engine (repro.env.costcache)."""

import numpy as np
import pytest

from repro.baselines.oracle import OptOracle
from repro.common import UnknownKeyError, make_rng
from repro.env import costcache
from repro.env.costcache import NominalCostEngine
from repro.env.environment import EdgeCloudEnvironment
from repro.env.executor import NoiseConfig
from repro.env.observation import Observation
from repro.env.qos import use_case_for
from repro.hardware.devices import PHONE_NAMES, build_device
from repro.models.zoo import NETWORK_NAMES

# The sweep and ``estimate`` sum one per-layer term table in one order,
# so every comparison below is ``==``.  A test that needs the sweep of
# its own observation (not of an earlier one in the same cache bin)
# calls ``cost_engine.invalidate()`` first.

_RESULT_FIELDS = ("latency_ms", "energy_mj", "estimated_energy_mj",
                  "accuracy_pct")


def _random_observation(rng):
    return Observation(
        cpu_util=float(rng.uniform(0.0, 0.95)),
        mem_util=float(rng.uniform(0.0, 0.95)),
        rssi_wlan_dbm=float(rng.uniform(-90.0, -50.0)),
        rssi_p2p_dbm=float(rng.uniform(-90.0, -50.0)),
    )


class TestSweepParity:
    def test_matches_scalar_estimate_per_target(self, zoo):
        """Every sweep column equals scalar estimate, bit for bit, for
        every target of every device and network."""
        rng = make_rng(11)
        for device_name in (*PHONE_NAMES, "mi8pro_npu"):
            env = EdgeCloudEnvironment(build_device(device_name), seed=0)
            for name in NETWORK_NAMES:
                network = zoo[name]
                for _ in range(3):
                    observation = _random_observation(rng)
                    env.cost_engine.invalidate()
                    sweep = env.estimate_all(network, observation)
                    for index, target in enumerate(env.targets()):
                        scalar = env.estimate(network, target, observation)
                        for field in _RESULT_FIELDS:
                            assert (float(getattr(sweep, field)[index])
                                    == getattr(scalar, field)), (
                                f"{device_name} {name} {target.key} {field}"
                            )

    def test_result_for_reconstructs_execution_result(self, env, zoo):
        observation = env.observe()
        network = zoo["mobilenet_v3"]
        env.cost_engine.invalidate()
        sweep = env.estimate_all(network, observation)
        target = env.targets()[7]
        scalar = env.estimate(network, target, observation)
        batched = sweep.result_for(target)
        assert batched.target_key == scalar.target_key
        for field in _RESULT_FIELDS:
            assert getattr(batched, field) == getattr(scalar, field)

    def test_index_of_unknown_target_raises(self, env, zoo):
        sweep = env.estimate_all(zoo["mobilenet_v3"], env.observe())
        foreign = build_device("galaxy_s10e")
        foreign_env = EdgeCloudEnvironment(foreign, seed=0)
        stranger = next(
            target for target in foreign_env.targets()
            if target.key not in {t.key for t in env.targets()}
        )
        with pytest.raises(UnknownKeyError):
            sweep.index_of(stranger)


class TestExecuteEstimateParity:
    @pytest.mark.parametrize("device_name", (*PHONE_NAMES, "mi8pro_npu"))
    def test_noise_free_execute_agrees_with_estimate(self, zoo,
                                                     device_name):
        """NoiseConfig(0,0,0,0) + idle scenario: execute == estimate on
        latency for every target of every device."""
        env = EdgeCloudEnvironment(
            build_device(device_name), scenario="S1",
            noise=NoiseConfig(0.0, 0.0, 0.0, 0.0), seed=5,
        )
        network = zoo["mobilenet_v3"]
        observation = env.observe()
        env.cost_engine.invalidate()
        sweep = env.estimate_all(network, observation)
        for index, target in enumerate(env.targets()):
            executed = env.execute(network, target, observation)
            estimated = env.estimate(network, target, observation)
            assert executed.latency_ms == estimated.latency_ms, target.key
            for field in _RESULT_FIELDS:
                assert (float(getattr(sweep, field)[index])
                        == getattr(executed, field)), (target.key, field)


def _scalar_oracle_target(env, use_case, observation):
    """Footnote 8's search, one scalar ``estimate`` per target.

    Among accuracy-feasible targets, rank QoS-meeting ones first, then
    by nominal energy; the reference for the sweep-based ``OptOracle``.
    """
    best, best_rank = None, None
    for target in env.targets():
        accuracy = env.accuracy.lookup(use_case.network.name,
                                       target.precision)
        if not use_case.meets_accuracy(accuracy):
            continue
        result = env.estimate(use_case.network, target, observation)
        rank = (not use_case.meets_qos(result.latency_ms),
                result.energy_mj)
        if best_rank is None or rank < best_rank:
            best, best_rank = target, rank
    return best


class TestOracleEquivalence:
    def test_batched_oracle_selects_identical_targets(self, env, zoo):
        use_cases = [use_case_for(zoo[name])
                     for name in ("mobilenet_v3", "resnet_50",
                                  "mobilebert")]
        oracle = OptOracle()
        rng = make_rng(23)
        for use_case in use_cases:
            for _ in range(5):
                observation = _random_observation(rng)
                assert (oracle.select(env, use_case, observation).key
                        == _scalar_oracle_target(env, use_case,
                                                 observation).key)

    def test_argbest_subset_matches_full_search_semantics(self, env, zoo):
        use_case = use_case_for(zoo["inception_v1"])
        env.cost_engine.invalidate()
        sweep = env.estimate_all(use_case.network, env.observe())
        best = sweep.argbest(use_case)
        all_indices = list(range(len(sweep)))
        assert sweep.argbest(use_case, indices=all_indices) == best
        assert sweep.argbest(use_case, indices=[best]) == best
        assert sweep.argbest(use_case, indices=[]) is None


class TestCache:
    def test_hit_returns_identical_sweep(self, env, zoo):
        network = zoo["mobilenet_v3"]
        observation = env.observe()
        first = env.estimate_all(network, observation)
        again = env.estimate_all(network, observation)
        assert again is first
        stats = env.cost_engine.stats()
        assert stats.hits == 1 and stats.misses == 1
        target = env.targets()[0]
        assert (first.result_for(target).energy_mj
                == again.result_for(target).energy_mj)

    def test_nearby_observation_hits_same_bin(self, env, zoo):
        network = zoo["mobilenet_v3"]
        base = Observation(cpu_util=0.400, mem_util=0.200,
                           rssi_wlan_dbm=-60.0, rssi_p2p_dbm=-60.0)
        nudged = Observation(cpu_util=0.401, mem_util=0.199,
                             rssi_wlan_dbm=-60.1, rssi_p2p_dbm=-59.9)
        first = env.estimate_all(network, base)
        assert env.estimate_all(network, nudged) is first

    def test_reset_with_seed_invalidates(self, env, zoo):
        network = zoo["mobilenet_v3"]
        observation = env.observe()
        env.estimate_all(network, observation)
        assert env.cost_engine.stats().size == 1
        env.reset(seed=99)
        assert env.cost_engine.stats().size == 0
        env.estimate_all(network, observation)
        assert env.cost_engine.stats().misses == 2

    def test_reset_without_seed_keeps_cache(self, env, zoo):
        env.estimate_all(zoo["mobilenet_v3"], env.observe())
        env.reset()
        assert env.cost_engine.stats().size == 1

    def test_scenario_swap_invalidates(self, env, zoo):
        env.estimate_all(zoo["mobilenet_v3"], env.observe())
        assert env.cost_engine.stats().size == 1
        env.scenario = "S2"
        assert env.cost_engine.stats().size == 0

    def test_lru_eviction_is_bounded(self, mi8pro_device, zoo,
                                     monkeypatch):
        monkeypatch.setattr(costcache, "_SWEEP_CACHE_SIZE", 2)
        env = EdgeCloudEnvironment(mi8pro_device, seed=0)
        engine = NominalCostEngine(env)
        network = zoo["mobilenet_v3"]
        rssi_levels = (-50.0, -60.0, -70.0)
        for rssi_dbm in rssi_levels:
            engine.sweep(network, Observation(rssi_wlan_dbm=rssi_dbm))
        stats = engine.stats()
        assert stats.size == 2
        assert stats.evictions == 1
        assert stats.misses == len(rssi_levels)

    def test_sweep_arrays_are_read_only(self, env, zoo):
        sweep = env.estimate_all(zoo["mobilenet_v3"], env.observe())
        with pytest.raises((ValueError, RuntimeError)):
            sweep.energy_mj[0] = 1.0

    def test_hit_ratio(self, env, zoo):
        network = zoo["mobilenet_v3"]
        observation = env.observe()
        env.estimate_all(network, observation)
        env.estimate_all(network, observation)
        env.estimate_all(network, observation)
        assert env.cost_engine.stats().hit_ratio == pytest.approx(2 / 3)


class TestNetworkTables:
    def test_lazy_per_network_build(self, env, zoo):
        observation = env.observe()
        env.estimate_all(zoo["mobilenet_v3"], observation)
        env.estimate_all(zoo["resnet_50"], observation)
        # Distinct networks occupy distinct cache keys (no collisions).
        assert env.cost_engine.stats().size == 2

    def test_sweep_covers_whole_action_space(self, env, zoo):
        sweep = env.estimate_all(zoo["mobilenet_v3"], env.observe())
        assert len(sweep) == len(env.targets())
        assert np.all(np.isfinite(sweep.energy_mj))
        assert np.all(sweep.latency_ms > 0)

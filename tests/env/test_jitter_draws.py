"""``execute`` draws a request's jitters with one vector RNG call.

The reference below is the per-slot scalar form the vector draw
replaces: ``exp(sigma * rng.standard_normal())`` for each positive
sigma, exactly 1.0 (and no draw) for a zero one.  A NumPy ``Generator``
fills ``standard_normal(k)`` with the same sequential draws as ``k``
scalar calls, so results and the bit-generator state must match.
"""

import math

import pytest

from repro.env.environment import EdgeCloudEnvironment
from repro.env.executor import NoiseConfig, jitter_slots
from repro.env.observation import Observation
from repro.hardware.devices import build_device
from repro.models.zoo import build_network


def _scalar_execute(env, network, target, observation):
    """``env.execute`` with the jitters drawn one scalar at a time."""
    finish, args = env.cost_engine.finishing_inputs(network, target,
                                                    observation)
    rng = env.rng
    result = finish(*args, [
        math.exp(sigma * rng.standard_normal()) if sigma is not None
        else 1.0
        for sigma in jitter_slots(env.noise, target.is_remote)
    ])
    env.advance_clock(result.latency_ms + env.think_time_ms)
    return result


#: ``default`` draws every slot (``execute``'s zip branch); the others
#: leave some or all slots undrawn (its skip-the-``None`` branch): both
#: local and remote slots partial, remote slots only, or none drawn.
_NOISES = {
    "default": NoiseConfig(),
    "some_zero": NoiseConfig(latency_sigma=0.0, server_sigma=0.0),
    "remote_zero_only": NoiseConfig(network_sigma=0.0),
    "all_zero": NoiseConfig(latency_sigma=0.0, power_sigma=0.0,
                            server_sigma=0.0, network_sigma=0.0),
}


@pytest.mark.parametrize("noise", list(_NOISES.values()), ids=list(_NOISES))
def test_vector_draw_matches_scalar_reference(noise):
    device = build_device("mi8pro")
    vector = EdgeCloudEnvironment(device, noise=noise, seed=11)
    scalar = EdgeCloudEnvironment(device, noise=noise, seed=11)
    network = build_network("mobilenet_v3")
    observation = Observation(cpu_util=0.2, mem_util=0.1,
                              rssi_wlan_dbm=-70.0, rssi_p2p_dbm=-65.0)
    targets = vector.targets()
    local = next(t for t in targets if not t.is_remote)
    remote = next(t for t in targets if t.is_remote)
    # Local and remote requests interleaved with the scenario's own
    # draws, so a slot-count or ordering slip would shift the stream.
    for target in (local, remote, remote, local, remote):
        got = vector.execute(network, target, observation)
        want = _scalar_execute(scalar, network, target, observation)
        assert got == want
        assert vector.rng.bit_generator.state \
            == scalar.rng.bit_generator.state
        assert vector.observe() == scalar.observe()


def test_all_zero_sigmas_draw_nothing():
    env = EdgeCloudEnvironment(build_device("mi8pro"),
                               noise=_NOISES["all_zero"], seed=3)
    network = build_network("mobilenet_v3")
    local = next(t for t in env.targets() if not t.is_remote)
    remote = next(t for t in env.targets() if t.is_remote)
    before = env.rng.bit_generator.state
    for target in (local, remote):
        result = env.execute(network, target, Observation())
        assert result == env.estimate(network, target, Observation())
    assert env.rng.bit_generator.state == before


def test_default_noise_draws_every_slot():
    """The default noise has no zero sigma: every slot draws."""
    for is_remote in (False, True):
        assert None not in jitter_slots(NoiseConfig(), is_remote)

"""``TraceCoRunner.sample`` draws both jitters with one vector call.

The reference below is the per-jitter scalar form it replaces: two
``rng.normal(0.0, jitter)`` calls, each added to its phase load and
clamped to [0, 1].  A NumPy ``Generator`` fills ``standard_normal(2)``
with the same two sequential draws, and ``normal(0.0, s)`` is
``0.0 + s * z`` of the same draw, so over every dynamic Table-IV
scenario the observations and the bit-generator state must match.
"""

import pytest

from repro.common import clamp, make_rng
from repro.env.environment import EdgeCloudEnvironment
from repro.hardware.devices import build_device
from repro.interference.corunner import CoRunnerLoad, TraceCoRunner


def _scalar_sample(self, rng, now_ms=0.0):
    """``TraceCoRunner.sample`` with one ``rng.normal`` per jitter."""
    cpu, mem = self._phase_at(now_ms)
    if self.jitter:
        cpu = clamp(cpu + rng.normal(0.0, self.jitter), 0.0, 1.0)
        mem = clamp(mem + rng.normal(0.0, self.jitter), 0.0, 1.0)
    return CoRunnerLoad(cpu_util=cpu, mem_util=mem)


def _observe_run(scenario, steps=400):
    """Observations and bit-generator states over ``steps`` samples,
    the clock moving through the traces' phases (and D4's switch)."""
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario=scenario,
                               seed=21)
    trail = []
    for step in range(steps):
        trail.append((env.observe(), env.rng.bit_generator.state))
        env.advance_clock(173.0 + 29.0 * (step % 7))
    return trail


@pytest.mark.parametrize("scenario", ("D1", "D2", "D3", "D4"))
def test_vector_draw_matches_scalar_reference(monkeypatch, scenario):
    vector = _observe_run(scenario)
    monkeypatch.setattr(TraceCoRunner, "sample", _scalar_sample)
    scalar = _observe_run(scenario)
    assert vector == scalar


def test_clamps_at_both_bounds():
    """Phase loads at 0 and 1 with a wide jitter exercise both clamps."""
    corunner = TraceCoRunner("edges", ((100.0, 0.0, 1.0),), jitter=0.5)
    vector_rng = make_rng(4)
    scalar_rng = make_rng(4)
    seen_low = seen_high = False
    for now_ms in range(0, 5000, 37):
        got = corunner.sample(vector_rng, float(now_ms))
        want = _scalar_sample(corunner, scalar_rng, float(now_ms))
        assert got == want
        seen_low |= got.cpu_util == 0.0
        seen_high |= got.mem_util == 1.0
    assert seen_low and seen_high
    assert vector_rng.bit_generator.state == scalar_rng.bit_generator.state

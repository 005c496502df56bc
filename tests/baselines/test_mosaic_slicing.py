"""MOSAIC's vector slicing search against the scalar enumeration.

:func:`repro.baselines.mosaic.best_slicing` prices every one-, two- and
three-segment plan of one segment count in one numpy pass;
``tests/baselines/mosaic_loop.py`` walks the same plans one at a time.
On every device's trained per-role predictions, for every network and
every ``max_segments``, the two must pick the same plan (``==``), and on
constructed exact ties the first plan in enumeration order must win.
"""

import numpy as np
import pytest

from repro.baselines.mosaic import MosaicScheduler, best_slicing
from repro.common import make_rng
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_cases_for_zoo
from repro.hardware.devices import build_device
from tests.baselines.mosaic_loop import scalar_slicing

DEVICES = ("mi8pro", "galaxy_s10e", "moto_x_force")


def _prefix(layer_ms):
    return np.concatenate([[0.0], np.cumsum(layer_ms)])


@pytest.mark.parametrize("device_name", DEVICES)
def test_vector_pass_matches_scalar_enumeration(zoo, device_name):
    env = EdgeCloudEnvironment(build_device(device_name), seed=0)
    cases = use_cases_for_zoo(zoo)
    assert len(cases) == 10
    scheduler = MosaicScheduler()
    scheduler.train(env, cases, rng=make_rng(0))
    base_mw = env.device.soc.platform_idle_mw
    multi_segment = 0
    for case in cases:
        roles, layer_ms, busy_mw = scheduler._role_costs(env, case.network)
        prefix_ms = np.array([_prefix(layer_ms[role]) for role in roles])
        powers = np.array([busy_mw[role] for role in roles])
        for max_segments in (1, 2, 3):
            want = scalar_slicing(prefix_ms, powers, base_mw, max_segments)
            got = best_slicing(prefix_ms, powers, base_mw, max_segments)
            assert got == want, (case.name, max_segments)
            assert len(got) <= max_segments
            multi_segment += len(got) > 1
    # The searches do pick hand-offs, not only single-engine runs.
    assert multi_segment > 0


@pytest.mark.parametrize("max_segments", (1, 2, 3))
def test_trained_plans_follow_the_scalar_pick(zoo, max_segments):
    env = EdgeCloudEnvironment(build_device("mi8pro"), seed=0)
    cases = use_cases_for_zoo(zoo)
    scheduler = MosaicScheduler(max_segments=max_segments)
    scheduler.train(env, cases, rng=make_rng(0))
    for case in cases:
        roles, layer_ms, busy_mw = scheduler._role_costs(env, case.network)
        want = scalar_slicing(
            [_prefix(layer_ms[role]) for role in roles],
            [busy_mw[role] for role in roles],
            env.device.soc.platform_idle_mw, max_segments)
        plan = scheduler.select(env, case, env.observe())
        assert [(count, target.role) for count, target in plan] \
            == [(stop - start, roles[role]) for start, stop, role in want]


class TestExactTies:
    """Hand-built predictions whose sums are exact in binary."""

    def _check(self, layer_ms, busy_mw, base_mw, max_segments, expected):
        prefix_ms = np.array([_prefix(row) for row in layer_ms])
        powers = np.array(busy_mw, dtype=float)
        want = scalar_slicing(prefix_ms, powers, base_mw, max_segments)
        assert want == expected
        assert best_slicing(prefix_ms, powers, base_mw, max_segments) \
            == expected

    def test_identical_roles_first_wins(self):
        row = [1.0, 2.0, 0.5, 4.0]
        self._check([row, row], [800.0, 800.0], 1000.0, 3, [(0, 4, 0)])

    def test_energy_breaks_a_latency_tie(self):
        row = [1.0, 2.0, 0.5, 4.0]
        self._check([row, row], [800.0, 400.0], 1000.0, 3, [(0, 4, 1)])

    def test_tie_within_one_pass_first_wins(self):
        # Roles 1 and 2 are identical: 0 -> 1 and 0 -> 2 cut at layer 2
        # both take 2 + 2.5 + 5.5 = 10 ms, the least of every plan.
        head = [1.0, 1.0, 4.0, 5.0]
        tail = [3.0, 3.0, 1.5, 4.0]
        self._check([head, tail, tail], [0.0, 0.0, 0.0], 1000.0, 2,
                    [(0, 2, 0), (2, 4, 1)])

    def test_tie_across_passes_first_wins(self):
        # Role 0 alone takes 10 ms; 0 -> 1 cut at layer 2 takes
        # 2 + 2.5 + 5.5 = 10 ms too, at the same energy (no busy power).
        head = [1.0, 1.0, 4.0, 4.0]
        tail = [3.0, 3.0, 1.5, 4.0]
        self._check([head, tail], [0.0, 0.0], 1000.0, 3, [(0, 4, 0)])


@pytest.mark.parametrize("num_layers", (1, 2, 3, 4, 5, 40))
@pytest.mark.parametrize("num_roles", (1, 2, 3, 4))
def test_small_and_degenerate_shapes(num_layers, num_roles):
    """Networks too short for any cut or grid, and single-role devices,
    against the scalar enumeration on random predictions."""
    rng = make_rng(num_layers * 10 + num_roles)
    prefix_ms = np.array([_prefix(rng.uniform(0.1, 3.0, num_layers))
                          for _ in range(num_roles)])
    powers = rng.uniform(200.0, 2000.0, num_roles)
    for max_segments in (1, 2, 3):
        assert best_slicing(prefix_ms, powers, 900.0, max_segments) \
            == scalar_slicing(prefix_ms, powers, 900.0, max_segments)

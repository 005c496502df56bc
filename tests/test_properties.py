"""Property-based tests (hypothesis) on core data structures/invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.convergence import episodes_to_converge
from repro.core.discretize import cluster_edges, dbscan
from repro.core.qlearning import QLearningConfig, QTable
from repro.core.state import table_i_state_space
from repro.env.observation import Observation
from repro.env.target import ExecutionTarget, Location
from repro.hardware.dvfs import build_vf_table
from repro.models.layers import LayerType, make_layer
from repro.models.quantization import Precision
from repro.wireless.profiles import default_wifi

# ---------------------------------------------------------------------------
# State space
# ---------------------------------------------------------------------------

_SPACE = table_i_state_space()

observations = st.builds(
    Observation,
    cpu_util=st.floats(0.0, 1.0, allow_nan=False),
    mem_util=st.floats(0.0, 1.0, allow_nan=False),
    rssi_wlan_dbm=st.floats(-100.0, -30.0, allow_nan=False),
    rssi_p2p_dbm=st.floats(-100.0, -30.0, allow_nan=False),
)


class _FakeNetwork:
    def __init__(self, conv, fc, rc, mega):
        self.num_conv = conv
        self.num_fc = fc
        self.num_rc = rc
        self.mega_macs = mega


networks = st.builds(
    _FakeNetwork,
    conv=st.integers(0, 200),
    fc=st.integers(0, 40),
    rc=st.integers(0, 40),
    mega=st.floats(1.0, 10_000.0, allow_nan=False),
)


@given(network=networks, observation=observations)
def test_state_encode_always_in_range(network, observation):
    index = _SPACE.encode(network, observation)
    assert 0 <= index < _SPACE.size


@given(network=networks, observation=observations)
def test_state_encode_deterministic(network, observation):
    assert (_SPACE.encode(network, observation)
            == _SPACE.encode(network, observation))


@given(observation=observations)
def test_rssi_state_matches_table_i_threshold(observation):
    labels = _SPACE.describe(_FakeNetwork(10, 1, 0, 100.0), observation)
    expected = "weak" if observation.rssi_wlan_dbm <= -80.0 else "regular"
    assert labels["s_rssi_w"] == expected


# ---------------------------------------------------------------------------
# Q-table
# ---------------------------------------------------------------------------

@given(
    rewards=st.lists(st.floats(-100.0, 0.0, allow_nan=False), min_size=1,
                     max_size=50),
    state=st.integers(0, 9),
    action=st.integers(0, 4),
)
@settings(max_examples=50)
def test_q_values_bounded_by_reward_range(rewards, state, action):
    """With rewards in [lo, 0] and init in [-1, 0], Q values never
    escape [lo/(1-mu) - 1, 0]-ish bounds (contraction property)."""
    table = QTable(10, 5, config=QLearningConfig(), seed=0)
    for reward in rewards:
        table.update(state, action, reward, (state + 1) % 10)
    mu = table.config.discount
    lower = min(-1.0, min(rewards)) / (1.0 - mu) - 1.0
    assert lower <= table.value(state, action) <= 0.5


@given(st.integers(1, 40), st.integers(1, 40))
def test_qtable_visits_match_updates(num_updates, seed):
    table = QTable(4, 4, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(num_updates):
        table.update(int(rng.integers(4)), int(rng.integers(4)), -1.0, 0)
    assert int(table.visits.sum()) == num_updates == table.update_count


@given(st.floats(-50.0, -0.01, allow_nan=False))
def test_repeated_reward_converges_to_fixed_point(reward):
    """Q(s,a) for a self-loop converges to R / (1 - mu) when (s,a) is
    also the best action of the next state."""
    table = QTable(1, 1, seed=0)
    for _ in range(200):
        table.update(0, 0, reward, 0)
    mu = table.config.discount
    assert table.value(0, 0) == np.float32(
        table.value(0, 0)
    )  # dtype stable
    assert abs(table.value(0, 0) - reward / (1 - mu)) < abs(reward) * 0.02


# ---------------------------------------------------------------------------
# Wireless link
# ---------------------------------------------------------------------------

@given(st.floats(-100.0, -30.0, allow_nan=False),
       st.floats(-100.0, -30.0, allow_nan=False))
def test_rate_monotone_in_rssi(a, b):
    link = default_wifi()
    lo, hi = min(a, b), max(a, b)
    assert link.data_rate_mbps(lo) <= link.data_rate_mbps(hi) + 1e-9


@given(st.floats(-100.0, -30.0, allow_nan=False),
       st.floats(0.0, 1e7, allow_nan=False))
def test_transfer_time_non_negative_and_monotone_in_bytes(rssi, size):
    link = default_wifi()
    t = link.transfer_ms(size, rssi)
    assert t >= 0.0
    assert link.transfer_ms(size * 2, rssi) >= t


@given(st.floats(-100.0, -30.0, allow_nan=False))
def test_tx_power_bounded(rssi):
    link = default_wifi()
    assert (link.tx_power_min_mw - 1e-9 <= link.tx_power_mw(rssi)
            <= link.tx_power_max_mw + 1e-9)


# ---------------------------------------------------------------------------
# Processor latency model
# ---------------------------------------------------------------------------

from repro.hardware.processor import Processor, ProcessorKind  # noqa: E402

_CPU = Processor(
    name="prop_cpu", kind=ProcessorKind.CPU,
    vf_table=build_vf_table(8, 2000), peak_gmacs=10.0,
    precisions={Precision.FP32: 1.0, Precision.INT8: 2.0},
    busy_power_mw=4000.0, idle_power_mw=300.0,
)


@given(st.floats(1e3, 1e10, allow_nan=False), st.integers(0, 7))
def test_latency_positive_and_monotone_in_vf(macs, vf):
    layer = make_layer(LayerType.CONV, "c", macs=macs)
    latency = _CPU.layer_latencies_ms([layer], Precision.FP32, vf)[0]
    assert latency > 0
    top = _CPU.layer_latencies_ms([layer], Precision.FP32, -1)[0]
    assert latency >= top - 1e-12


@given(st.integers(0, 7))
def test_busy_power_monotone_in_vf(vf):
    if vf < 7:
        assert _CPU.busy_power_at(vf) <= _CPU.busy_power_at(vf + 1) + 1e-9


# ---------------------------------------------------------------------------
# DBSCAN
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(-100.0, 100.0, allow_nan=False), min_size=5,
                max_size=60))
@settings(max_examples=40)
def test_dbscan_labels_partition_points(points):
    labels = dbscan(points, eps=5.0, min_samples=3)
    assert len(labels) == len(points)
    assert labels.min() >= -1


@given(st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=5,
                max_size=60))
@settings(max_examples=40)
def test_cluster_edges_sorted_and_between_extremes(points):
    values = np.asarray(points)
    labels = dbscan(values, eps=3.0, min_samples=3)
    edges = cluster_edges(values, labels)
    assert list(edges) == sorted(edges)
    if edges:
        assert values.min() <= edges[0] and edges[-1] <= values.max()


# ---------------------------------------------------------------------------
# Convergence
# ---------------------------------------------------------------------------

@given(st.floats(-100.0, -0.1, allow_nan=False), st.integers(20, 60))
def test_constant_rewards_always_converge(value, length):
    assert episodes_to_converge([value] * length) < length


# ---------------------------------------------------------------------------
# Execution targets
# ---------------------------------------------------------------------------

@given(st.sampled_from(["cpu", "gpu", "dsp"]),
       st.sampled_from(list(Precision)), st.integers(0, 30))
def test_local_target_key_roundtrips_fields(role, precision, vf):
    target = ExecutionTarget(Location.LOCAL, role, precision, vf)
    assert target.key == f"local/{role}/{precision.label}/vf{vf}"


# ---------------------------------------------------------------------------
# Reward (eq. 5)
# ---------------------------------------------------------------------------

from repro.core.reward import RewardConfig, compute_reward  # noqa: E402
from repro.env.qos import UseCase  # noqa: E402
from repro.env.result import ExecutionResult  # noqa: E402
from repro.models.zoo import build_network  # noqa: E402

_NET = build_network("mobilenet_v3")


def _reward(latency, energy, accuracy=70.0, qos=50.0, target=None,
            config=RewardConfig()):
    result = ExecutionResult(
        latency_ms=latency, energy_mj=energy, estimated_energy_mj=energy,
        accuracy_pct=accuracy, target_key="x",
    )
    case = UseCase("p", _NET, qos_ms=qos, accuracy_target=target)
    return compute_reward(result, case, config)


@given(st.floats(1.0, 5000.0, allow_nan=False),
       st.floats(1.0, 5000.0, allow_nan=False),
       st.floats(0.1, 500.0, allow_nan=False))
def test_reward_monotone_decreasing_in_energy(e1, e2, latency):
    lo, hi = sorted((e1, e2))
    assert _reward(latency, lo) >= _reward(latency, hi)


@given(st.floats(0.1, 49.9, allow_nan=False),
       st.floats(1.0, 5000.0, allow_nan=False))
def test_reward_in_qos_beats_same_point_out_of_qos(latency, energy):
    inside = _reward(latency, energy, qos=50.0)
    outside = _reward(latency + 50.0, energy, qos=50.0)
    assert inside > outside


@given(st.floats(0.0, 69.9, allow_nan=False))
def test_reward_accuracy_failure_below_any_success(failing_accuracy):
    failing = _reward(10.0, 50.0, accuracy=failing_accuracy, target=70.0)
    succeeding = _reward(10.0, 4000.0, accuracy=70.0, target=70.0)
    assert failing < succeeding


@given(st.floats(1.0, 5000.0, allow_nan=False),
       st.floats(0.1, 500.0, allow_nan=False),
       st.floats(10.0, 100.0, allow_nan=False))
def test_normalized_and_raw_rewards_agree_on_ordering(energy, latency,
                                                      accuracy):
    """The normalized mode is the raw mode scaled by a constant (plus the
    same accuracy term), so pairwise orderings must agree."""
    other_energy = energy * 1.5
    normalized = RewardConfig(normalize=True)
    raw = RewardConfig(normalize=False)
    n1 = _reward(latency, energy, accuracy, config=normalized)
    n2 = _reward(latency, other_energy, accuracy, config=normalized)
    r1 = _reward(latency, energy, accuracy, config=raw)
    r2 = _reward(latency, other_energy, accuracy, config=raw)
    assert (n1 > n2) == (r1 > r2)


# ---------------------------------------------------------------------------
# Transfer mapping
# ---------------------------------------------------------------------------

from repro.env.target import ActionSpace  # noqa: E402
from repro.core.transfer import map_actions  # noqa: E402
from repro.env.environment import EdgeCloudEnvironment  # noqa: E402
from repro.hardware.devices import build_device  # noqa: E402

_SPACES = {
    name: ActionSpace.from_environment(
        EdgeCloudEnvironment(build_device(name), seed=0)
    )
    for name in ("mi8pro", "galaxy_s10e", "moto_x_force")
}


@given(st.sampled_from(sorted(_SPACES)), st.sampled_from(sorted(_SPACES)))
def test_transfer_mapping_preserves_slots(source_name, target_name):
    source, target = _SPACES[source_name], _SPACES[target_name]
    mapping = map_actions(source, target)
    for target_index, source_index in enumerate(mapping):
        if source_index is None:
            continue
        a = target.target(target_index)
        b = source.target(source_index)
        assert (a.location, a.role, a.precision) \
            == (b.location, b.role, b.precision)


@given(st.sampled_from(sorted(_SPACES)))
def test_transfer_mapping_identity_on_self(name):
    space = _SPACES[name]
    assert map_actions(space, space) == list(range(len(space)))


# ---------------------------------------------------------------------------
# Zoo invariants
# ---------------------------------------------------------------------------

from repro.models.zoo import NETWORK_NAMES, TABLE_III  # noqa: E402

_ZOO = {name: build_network(name) for name in NETWORK_NAMES}


@given(st.sampled_from(sorted(NETWORK_NAMES)))
def test_zoo_composition_always_matches_table_iii(name):
    assert _ZOO[name].composition.as_tuple() == TABLE_III[name]


@given(st.sampled_from(sorted(NETWORK_NAMES)),
       st.integers(0, 200))
def test_zoo_transfer_bytes_defined_at_every_split(name, raw_point):
    network = _ZOO[name]
    point = raw_point % (len(network.layers) + 1)
    wire = network.transfer_bytes_at(point)
    assert wire >= 0.0
    if point == len(network.layers):
        assert wire == 0.0


@given(st.sampled_from(sorted(NETWORK_NAMES)))
def test_zoo_total_macs_is_sum_of_layers(name):
    network = _ZOO[name]
    assert network.total_macs == pytest.approx(
        sum(l.macs for l in network.layers)
    )


import pytest  # noqa: E402

"""Tests for the alternative RL value-learners."""

import numpy as np
import pytest

from repro.common import ConfigError
from repro.core.alternatives import (LinearQFunction, MlpQNetwork,
                                     SarsaTable)
from repro.core.qlearning import QLearningConfig
from repro.core.state import table_i_state_space


class TestSarsaTable:
    def test_dimensions(self):
        table = SarsaTable(16, 8, seed=0)
        assert table.num_states == 16
        assert table.num_actions == 8

    def test_update_rule_exact(self):
        """Q(S,A) <- Q(S,A) + gamma [R + mu Q(S',A') - Q(S,A)], applied
        by the next call, whose (state, action) are (S', A')."""
        config = QLearningConfig(learning_rate=0.5, discount=0.2)
        table = SarsaTable(4, 3, config=config, seed=0)
        before = table.values.copy()
        q_before = float(table.values[0, 1])
        q_next = float(table.values[2, 0])
        # The first call only parks (S, A, R): nothing is applied yet.
        assert table.update(0, 1, reward=-1.0, next_state=3) == 0.0
        np.testing.assert_array_equal(table.values, before)
        delta = table.update(2, 0, reward=-7.0, next_state=1)
        expected = q_before + 0.5 * (-1.0 + 0.2 * q_next - q_before)
        assert float(table.values[0, 1]) == pytest.approx(expected,
                                                          rel=1e-5)
        assert delta == pytest.approx(expected - q_before, rel=1e-5)
        # Only the completed pair moved; (2, 0) waits for its own A'.
        changed = table.values != before
        assert changed.sum() == 1 and changed[0, 1]

    def test_on_policy_bootstraps_chosen_action(self):
        """SARSA uses Q(S', A'), not max_a Q(S', a)."""
        config = QLearningConfig(learning_rate=1.0, discount=0.5)
        table = SarsaTable(2, 2, config=config, seed=0)
        table.values[1] = np.array([-10.0, 0.0])
        table.update(0, 0, reward=0.0, next_state=1)
        table.update(1, 0, reward=-3.0, next_state=0)
        # Bootstrapped from the *bad* chosen action, not the greedy one.
        assert float(table.values[0, 0]) == pytest.approx(-5.0)

    def test_visits_tracked(self):
        table = SarsaTable(4, 3, seed=0)
        table.update(0, 1, -1.0, 1)
        assert not table.visits.any() and table.update_count == 0
        table.update(1, 2, -1.0, 3)
        assert table.visits[0, 1] == 1 and table.visits.sum() == 1
        assert table.update_count == 1

    def test_best_visited_action(self):
        table = SarsaTable(2, 3, seed=0)
        table.values[0] = np.array([-0.001, -5.0, -1.0])
        table.visits[0] = np.array([0, 1, 1], dtype=np.uint32)
        assert table.best_visited_action(0) == 2

    def test_bad_dimensions(self):
        with pytest.raises(ConfigError):
            SarsaTable(0, 3)


class TestLinearQFunction:
    @pytest.fixture()
    def space(self):
        return table_i_state_space()

    def test_feature_dimension(self, space):
        fn = LinearQFunction(space, 10, seed=0)
        # One-hot per feature plus bias.
        assert fn.dim == sum(f.num_bins for f in space.features) + 1

    def test_features_one_hot_per_feature(self, space):
        fn = LinearQFunction(space, 10, seed=0)
        phi = fn.features_of(0)
        # Exactly one active bin per feature plus the bias.
        assert phi.sum() == pytest.approx(len(space.features) + 1)

    def test_feature_decoding_roundtrip(self, space):
        fn = LinearQFunction(space, 4, seed=0)
        bins = (2, 1, 0, 1, 3, 0, 1, 0)
        state = space.index_of(bins)
        phi = fn.features_of(state)
        offset = 0
        for feature, expected in zip(space.features, bins):
            chunk = phi[offset:offset + feature.num_bins]
            assert int(np.argmax(chunk)) == expected
            offset += feature.num_bins

    def test_learning_converges_to_reward(self, space):
        fn = LinearQFunction(space, 2, seed=0)
        state = space.index_of((0, 0, 0, 0, 0, 0, 0, 0))
        for _ in range(300):
            fn.update(state, 0, reward=-2.0, next_state=state)
        q = fn.q_values(state)[0]
        mu = fn.config.discount
        assert q == pytest.approx(-2.0 / (1 - mu), rel=0.1)

    def test_generalizes_across_states(self, space):
        """Updating one state moves estimates for states sharing bins —
        the structural difference from the tabular learners."""
        fn = LinearQFunction(space, 1, seed=0)
        state_a = space.index_of((1, 0, 0, 0, 0, 0, 0, 0))
        state_b = space.index_of((1, 0, 0, 0, 0, 0, 0, 1))  # differs in 1
        before = fn.q_values(state_b)[0]
        for _ in range(50):
            fn.update(state_a, 0, reward=-5.0, next_state=state_a)
        after = fn.q_values(state_b)[0]
        assert after != before
        assert after < before  # dragged toward the negative reward

    def test_memory_far_smaller_than_table(self, space):
        fn = LinearQFunction(space, 66, seed=0)
        assert fn.memory_bytes < 0.1 * (space.size * 66 * 4)

    def test_best_visited_action_falls_back(self, space):
        fn = LinearQFunction(space, 3, seed=0)
        assert fn.best_visited_action(0) == fn.best_action(0)


class TestMlpQNetwork:
    @pytest.fixture()
    def space(self):
        return table_i_state_space()

    def test_forward_shapes(self, space):
        net = MlpQNetwork(space, 7, hidden=16, seed=0)
        values = net.q_values(42)
        assert values.shape == (7,)

    def test_learns_constant_reward(self, space):
        net = MlpQNetwork(space, 2, hidden=16, seed=0, step_size=0.05)
        state = space.index_of((0, 0, 0, 0, 0, 0, 0, 0))
        for _ in range(500):
            net.update(state, 0, reward=-2.0, next_state=state)
        mu = net.config.discount
        assert net.q_values(state)[0] == pytest.approx(
            -2.0 / (1 - mu), rel=0.25
        )

    def test_update_only_moves_executed_action_head(self, space):
        net = MlpQNetwork(space, 3, hidden=8, seed=1)
        w2_before = net.w2.copy()
        net.update(0, 1, reward=-1.0, next_state=0)
        # Only the executed action's output row changes.
        assert not np.allclose(net.w2[1], w2_before[1])
        assert np.allclose(net.w2[0], w2_before[0])
        assert np.allclose(net.w2[2], w2_before[2])

    def test_memory_much_smaller_than_table(self, space):
        net = MlpQNetwork(space, 66, hidden=32, seed=0)
        assert net.memory_bytes < 0.1 * (space.size * 66 * 4)

    def test_bad_params(self, space):
        with pytest.raises(ConfigError):
            MlpQNetwork(space, 0)
        with pytest.raises(ConfigError):
            MlpQNetwork(space, 3, hidden=0)
        with pytest.raises(ConfigError):
            MlpQNetwork(space, 3, step_size=0.0)


@pytest.mark.parametrize("learner", [LinearQFunction, MlpQNetwork])
class TestApproximatorPicks:
    """The approximators' greedy picks follow QTable's rules: a mask
    restricts the argmax, and the trained pick reads a per-state visit
    ledger of the table's shape."""

    @pytest.fixture()
    def space(self):
        return table_i_state_space()

    def test_visits_are_per_state(self, space, learner):
        fn = learner(space, 4, seed=0)
        assert fn.visits.shape == (space.size, 4)
        fn.update(7, 2, reward=-1.0, next_state=7)
        assert fn.visits[7, 2] == 1 and fn.visits.sum() == 1
        assert fn.update_count == 1

    def test_best_action_honours_allowed(self, space, learner):
        fn = learner(space, 5, seed=0)
        values = fn.q_values(3)
        greedy = fn.best_action(3)
        assert greedy == int(np.argmax(values))
        allowed = np.ones(5, dtype=bool)
        allowed[greedy] = False
        masked = fn.best_action(3, allowed)
        assert masked != greedy
        assert masked == int(np.argmax(np.where(allowed, values, -np.inf)))
        # A mask with no True entry is treated as no mask.
        assert fn.best_action(3, np.zeros(5, dtype=bool)) == greedy

    def test_best_visited_action_honours_allowed(self, space, learner):
        fn = learner(space, 5, seed=0)
        fn.update(3, 1, reward=-1.0, next_state=3)
        fn.update(3, 4, reward=-1.0, next_state=3)
        values = fn.q_values(3)
        assert fn.best_visited_action(3) == \
            (1 if values[1] >= values[4] else 4)
        only_four = np.zeros(5, dtype=bool)
        only_four[4] = True
        assert fn.best_visited_action(3, only_four) == 4
        # No allowed action was visited: the masked plain argmax.
        no_visited = np.ones(5, dtype=bool)
        no_visited[[1, 4]] = False
        assert fn.best_visited_action(3, no_visited) == \
            fn.best_action(3, no_visited)
        # A state never visited falls back to its own argmax.
        assert fn.best_visited_action(9) == fn.best_action(9)

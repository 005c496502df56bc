"""Tests for the Q-table and Algorithm-1 update rule."""

import numpy as np
import pytest

from repro.common import ConfigError
from repro.core.engine import AutoScale
from repro.core.qlearning import QLearningConfig, QTable


class TestConfig:
    def test_paper_defaults(self):
        config = QLearningConfig()
        assert config.learning_rate == 0.9
        assert config.discount == 0.1
        assert config.epsilon == 0.1

    def test_validation(self):
        with pytest.raises(ConfigError):
            QLearningConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            QLearningConfig(discount=1.0)
        with pytest.raises(ConfigError):
            QLearningConfig(epsilon=1.5)
        with pytest.raises(ConfigError):
            QLearningConfig(init_low=1.0, init_high=0.0)
        with pytest.raises(ConfigError):
            QLearningConfig(dtype="int8")


class TestQTable:
    def test_random_initialization_in_range(self):
        table = QTable(100, 10, seed=0)
        assert table.values.min() >= -1.0
        assert table.values.max() <= 0.0

    def test_dimensions(self):
        table = QTable(3072, 66, seed=0)
        assert table.num_states == 3072
        assert table.num_actions == 66

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ConfigError):
            QTable(0, 5)

    def test_update_rule_exact(self):
        """Q(S,A) <- Q(S,A) + gamma [R + mu max Q(S',.) - Q(S,A)]."""
        config = QLearningConfig(learning_rate=0.5, discount=0.2)
        table = QTable(4, 3, config=config, seed=0)
        q_before = table.value(0, 1)
        best_next = table.best_value(2)
        table.update(0, 1, reward=-1.0, next_state=2)
        expected = q_before + 0.5 * (-1.0 + 0.2 * best_next - q_before)
        assert table.value(0, 1) == pytest.approx(expected, rel=1e-5)

    def test_update_tracks_visits(self):
        table = QTable(4, 3, seed=0)
        assert table.visits[0, 1] == 0
        table.update(0, 1, -1.0, 0)
        assert table.visits[0, 1] == 1
        assert table.update_count == 1

    @pytest.mark.parametrize("dtype", ("float16", "float32", "float64"))
    def test_best_value_is_the_row_maximum(self, dtype):
        """``best_value`` equals the ``np.maximum.reduce`` of the row it
        replaced, on random rows, rows with tied maxima and a NaN row."""
        table = QTable(64, 66, QLearningConfig(dtype=dtype), seed=3)
        table.values[1, [4, 40]] = table.values[1].max() + 1.0
        table.values[2, 7] = np.nan
        for state in range(64):
            want = float(np.maximum.reduce(table.values[state]))
            got = table.best_value(state)
            assert got == want or (np.isnan(got) and np.isnan(want))
        assert np.isnan(table.best_value(2))

    def test_best_action_is_argmax(self):
        table = QTable(2, 4, seed=0)
        table.values[1] = np.array([-3.0, -1.0, -2.0, -9.0])
        assert table.best_action(1) == 1
        assert table.best_value(1) == pytest.approx(-1.0)

    def test_best_visited_action_ignores_untried(self):
        table = QTable(2, 4, seed=0)
        table.values[0] = np.array([-0.01, -5.0, -2.0, -0.02])
        table.visits[0] = np.array([0, 1, 1, 0], dtype=np.uint32)
        # Global argmax is the untried action 0; visited argmax is 2.
        assert table.best_action(0) == 0
        assert table.best_visited_action(0) == 2

    def test_best_visited_falls_back_when_unvisited(self):
        table = QTable(2, 4, seed=0)
        assert table.best_visited_action(0) == table.best_action(0)

    def test_float16_matches_paper_footprint(self):
        """Section VI-C: 0.4 MB for the Mi8Pro's 3,072 x 66 table."""
        table = QTable(3072, 66, config=QLearningConfig(dtype="float16"),
                       seed=0)
        assert table.memory_bytes == pytest.approx(0.4e6, rel=0.02)

    def test_save_load_roundtrip(self, tmp_path):
        table = QTable(10, 5, seed=3)
        table.update(2, 3, -1.5, 4)
        path = tmp_path / "qtable.npz"
        table.save(path)
        loaded = QTable.load(path)
        assert np.allclose(loaded.values, table.values)
        assert loaded.update_count == table.update_count
        assert loaded.visits[2, 3] == 1

    def test_copy_is_deep(self):
        table = QTable(4, 3, seed=0)
        clone = table.copy()
        clone.update(0, 0, -1.0, 1)
        assert table.visits[0, 0] == 0
        assert clone.visits[0, 0] == 1


class TestEpsilonGreedy:
    """Algorithm 1's choice rule, as the engine's one select runs it."""

    @staticmethod
    def _engine(env, epsilon, seed):
        return AutoScale(env, config=QLearningConfig(epsilon=epsilon),
                         seed=seed)

    def test_zero_epsilon_is_greedy(self, env):
        engine = self._engine(env, 0.0, 0)
        for _ in range(20):
            assert engine.select_action(0) \
                == (engine.qtable.best_action(0), False)

    def test_one_epsilon_is_uniform(self, env):
        engine = self._engine(env, 1.0, 1)
        actions = {engine.select_action(0)[0] for _ in range(2000)}
        assert actions == set(range(len(engine.action_space)))

    def test_exploration_rate_close_to_epsilon(self, env):
        engine = self._engine(env, 0.1, 2)
        greedy = engine.qtable.best_action(0)
        explored = sum(
            engine.select_action(0)[0] != greedy for _ in range(5000)
        )
        # ~epsilon * (n-1)/n of choices deviate from the argmax.
        assert 0.05 < explored / 5000 < 0.14


class TestLoadValidation:
    """A corrupt or mismatched archive must fail loudly, naming the path."""

    def _saved(self, tmp_path):
        table = QTable(6, 4, seed=3)
        table.update(1, 2, -1.0, 3)
        path = tmp_path / "qtable.npz"
        table.save(path)
        return path

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.npz"
        with pytest.raises(ConfigError, match="absent.npz"):
            QTable.load(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(ConfigError, match="garbage.npz"):
            QTable.load(path)

    def test_bare_npy_rejected(self, tmp_path):
        path = tmp_path / "bare.npy"
        np.save(path, np.zeros((3, 2)))
        with pytest.raises(ConfigError, match="not an .npz archive"):
            QTable.load(path)

    def test_missing_required_keys(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, values=np.zeros((3, 2), dtype=np.float32))
        with pytest.raises(ConfigError, match="update_count"):
            QTable.load(path)

    def test_values_must_be_two_dimensional(self, tmp_path):
        path = tmp_path / "flat.npz"
        np.savez(path, values=np.zeros(6, dtype=np.float32),
                 update_count=0)
        with pytest.raises(ConfigError, match="2-D"):
            QTable.load(path)

    def test_values_must_be_float(self, tmp_path):
        path = tmp_path / "ints.npz"
        np.savez(path, values=np.zeros((3, 2), dtype=np.int32),
                 update_count=0)
        with pytest.raises(ConfigError, match="not a float type"):
            QTable.load(path)

    def test_visits_shape_must_match(self, tmp_path):
        path = tmp_path / "shapes.npz"
        np.savez(path, values=np.zeros((3, 2), dtype=np.float32),
                 visits=np.zeros((3, 5), dtype=np.uint32),
                 update_count=0)
        with pytest.raises(ConfigError, match="does not match"):
            QTable.load(path)

    def test_visits_must_be_integer(self, tmp_path):
        path = tmp_path / "floats.npz"
        np.savez(path, values=np.zeros((3, 2), dtype=np.float32),
                 visits=np.zeros((3, 2), dtype=np.float64),
                 update_count=0)
        with pytest.raises(ConfigError, match="not an integer type"):
            QTable.load(path)

    def test_valid_archive_still_loads(self, tmp_path):
        path = self._saved(tmp_path)
        loaded = QTable.load(path)
        assert loaded.update_count == 1
        assert loaded.visits[1, 2] == 1

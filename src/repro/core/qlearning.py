"""Tabular Q-learning (Algorithm 1).

The value function Q(S, A) is a dense lookup table — the paper picks
Q-learning over TD-learning and deep RL precisely because a table lookup
keeps the per-inference overhead in the tens of microseconds and the
memory footprint under half a megabyte (Section VI-C).
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np

from repro.analysis.contracts import (
    contracts_enabled,
    ensure_q_value,
    is_finite,
)
from repro.common import ConfigError, make_rng

__all__ = ["QLearningConfig", "QTable"]


@dataclass(frozen=True)
class QLearningConfig:
    """Hyperparameters of Algorithm 1.

    The defaults are the paper's choices from its sensitivity study
    (Section V-C): learning rate 0.9 — new information should strongly
    override old, because the environment is stochastic; discount 0.1 —
    consecutive states are nearly unrelated, so future rewards get little
    weight; epsilon 0.1 for epsilon-greedy exploration.
    """

    learning_rate: float = 0.9
    discount: float = 0.1
    epsilon: float = 0.1
    init_low: float = -0.01
    init_high: float = 0.0
    dtype: str = "float32"

    def __post_init__(self):
        if self.dtype not in ("float16", "float32", "float64"):
            raise ConfigError(f"unsupported Q-table dtype {self.dtype!r}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError(
                f"learning rate outside (0, 1]: {self.learning_rate}"
            )
        if not 0.0 <= self.discount < 1.0:
            raise ConfigError(f"discount outside [0, 1): {self.discount}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError(f"epsilon outside [0, 1]: {self.epsilon}")
        if self.init_low > self.init_high:
            raise ConfigError("init_low exceeds init_high")


class QTable:
    """A dense (num_states x num_actions) action-value table."""

    def __init__(self, num_states, num_actions, config=QLearningConfig(),
                 seed=None):
        if num_states < 1 or num_actions < 1:
            raise ConfigError("Q-table dimensions must be positive")
        self.config = config
        rng = make_rng(seed)
        # Algorithm 1 initializes Q(S, A) with (small) random values.
        # Algorithm 1 initializes Q(S, A) with random values.  The
        # default range sits just below zero — *above* every achievable
        # reward (all negative) — so the initialization is optimistic:
        # exploitation systematically sweeps untried actions once before
        # settling, which is what lets a ~100-run training budget cover
        # a ~66-action space and reach the paper's 97.9% prediction
        # accuracy.  A float16 table matches the paper's 0.4 MB footprint
        # for the Mi8Pro's 3,072 x 66 space; float32 (the default)
        # trades 2x memory for safer incremental updates.
        self.values = rng.uniform(
            config.init_low, config.init_high,
            size=(num_states, num_actions),
        ).astype(config.dtype)
        self.visits = np.zeros((num_states, num_actions), dtype=np.uint32)
        self.update_count = 0

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    @property
    def num_states(self):
        return self.values.shape[0]

    @property
    def num_actions(self):
        return self.values.shape[1]

    def best_action(self, state, allowed=None):
        """argmax_a Q(state, a).

        ``allowed`` (a boolean mask over actions, e.g. from circuit
        breakers) restricts the argmax to the True entries; a mask with
        no True entry degenerates to the unmasked argmax rather than
        returning a nonsensical index.
        """
        if allowed is None or not np.any(allowed):
            return int(self.values[state].argmax())
        values = np.where(allowed, self.values[state], -np.inf)
        return int(np.argmax(values))

    def best_visited_action(self, state, allowed=None):
        """argmax_a Q(state, a) restricted to actions tried in ``state``.

        Random initialization doubles as optimistic exploration during
        training, but once the table is *frozen* an untried action's
        leftover init value is meaningless — the trained-table selection
        rule therefore only considers actions whose Q reflects at least
        one real reward.  Falls back to the global argmax for states that
        were never visited at all.  ``allowed`` additionally restricts
        the choice as in :meth:`best_action`.
        """
        visited = self.visits[state].nonzero()[0]
        if allowed is not None:
            visited = visited[np.asarray(allowed, dtype=bool)[visited]]
        if not visited.size:
            return self.best_action(state, allowed)
        # The first maximum among the visited actions, in action order.
        return int(visited[self.values[state][visited].argmax()])

    def best_value(self, state):
        """max_a Q(state, a)."""
        # The value at the first argmax: the row's maximum, as
        # ``np.maximum.reduce`` returns it (a NaN included, since argmax
        # stops at the first NaN), without the ufunc reduction's
        # per-call set-up, which costs more than the 66-entry scan.
        row = self.values[state]
        return float(row[row.argmax()])

    def value(self, state, action):
        return float(self.values[state, action])

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------

    def update(self, state, action, reward, next_state):
        """One Algorithm-1 update:

        Q(S,A) <- Q(S,A) + gamma * [R + mu * max_a' Q(S',A') - Q(S,A)]
        """
        # The Q-value contracts reject only non-finite values, so the
        # REPRO_CONTRACTS switch is read only when one shows up.
        if not is_finite(reward) and contracts_enabled():
            ensure_q_value(reward, "reward")
        gamma = self.config.learning_rate
        mu = self.config.discount
        target = reward + mu * self.best_value(next_state)
        delta = gamma * (target - self.values[state, action])
        self.values[state, action] += delta
        value = float(self.values[state, action])
        if not is_finite(value) and contracts_enabled():
            ensure_q_value(value, f"Q[{state}, {action}]")
        self.visits[state, action] += 1
        self.update_count += 1
        return float(delta)

    # ------------------------------------------------------------------
    # Persistence and footprint
    # ------------------------------------------------------------------

    @property
    def memory_bytes(self):
        """Resident size of the table — Section VI-C reports 0.4 MB."""
        return self.values.nbytes

    def save(self, path):
        """Persist to an ``.npz`` file."""
        np.savez_compressed(path, values=self.values, visits=self.visits,
                            update_count=self.update_count)

    @classmethod
    def load(cls, path, config=QLearningConfig()):
        """Load a table persisted with :meth:`save`.

        The archive is validated before anything is adopted: a missing
        or truncated file, an archive without the ``values`` /
        ``update_count`` keys, a non-2-D value table, a visit matrix
        whose shape disagrees with the values, or arrays whose dtype
        cannot be represented in ``config.dtype`` all raise
        :class:`~repro.common.ConfigError` naming the offending path,
        instead of surfacing a cryptic failure deep inside training.
        """
        try:
            data = np.load(path)
        except (OSError, ValueError, zipfile.BadZipFile) as error:
            raise ConfigError(
                f"cannot read Q-table archive {path!r}: {error}"
            ) from error
        if not hasattr(data, "files"):  # a bare .npy, not an archive
            raise ConfigError(
                f"Q-table archive {path!r} is not an .npz archive "
                f"(got a bare array of shape {getattr(data, 'shape', '?')})"
            )
        with data:
            available = set(data.files)
            missing = {"values", "update_count"} - available
            if missing:
                raise ConfigError(
                    f"Q-table archive {path!r} is missing required "
                    f"key(s) {sorted(missing)}; found {sorted(available)}"
                )
            values = data["values"]
            if values.ndim != 2:
                raise ConfigError(
                    f"Q-table archive {path!r}: 'values' must be a 2-D "
                    f"(states x actions) array, got shape {values.shape}"
                )
            if not np.issubdtype(values.dtype, np.floating):
                raise ConfigError(
                    f"Q-table archive {path!r}: 'values' dtype "
                    f"{values.dtype} is not a float type"
                )
            update_count = data["update_count"]
            if update_count.size != 1:
                raise ConfigError(
                    f"Q-table archive {path!r}: 'update_count' must be "
                    f"a scalar, got shape {update_count.shape}"
                )
            visits = data["visits"] if "visits" in available else None
            if visits is not None:
                if visits.shape != values.shape:
                    raise ConfigError(
                        f"Q-table archive {path!r}: 'visits' shape "
                        f"{visits.shape} does not match 'values' shape "
                        f"{values.shape}"
                    )
                if not np.issubdtype(visits.dtype, np.integer):
                    raise ConfigError(
                        f"Q-table archive {path!r}: 'visits' dtype "
                        f"{visits.dtype} is not an integer type"
                    )
            table = cls(values.shape[0], values.shape[1], config=config,
                        seed=0)
            table.values = values.astype(config.dtype)
            table.update_count = int(update_count)
            if visits is not None:
                table.visits = visits.astype(np.uint32)
        return table

    def copy(self):
        """A deep copy (used by transfer learning and ablations)."""
        clone = QTable(self.num_states, self.num_actions,
                       config=self.config, seed=0)
        clone.values = self.values.copy()
        clone.visits = self.visits.copy()
        clone.update_count = self.update_count
        return clone


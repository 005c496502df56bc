"""Alternative RL value-learners (Section IV's design-space discussion).

The paper picks tabular Q-learning "among the various RL approaches, such
as Q-learning, TD-learning, and deep RL", because a lookup table keeps the
per-decision latency overhead in the tens of microseconds.  To make that
trade-off measurable, this module implements the alternatives behind the
interface :class:`~repro.core.engine.AutoScale` calls on
:class:`~repro.core.qlearning.QTable` (``best_action``,
``best_visited_action``, a ``(states x actions)`` ``visits`` ledger,
``update(s, a, r, s')``, ``config``, ``update_count``, ``memory_bytes``),
so each one runs in the engine's own Algorithm-1 cycle
(``AutoScale(qtable=...)``):

- :class:`SarsaTable` — on-policy TD-learning (SARSA).  Identical memory
  and lookup cost to Q-learning; the update bootstraps from the action
  actually taken next rather than the greedy one, which reacts more
  conservatively under exploration.
- :class:`LinearQFunction` — Q(s, a) approximated as ``w_a . phi(s)``
  over the (one-hot per feature) state encoding: the smallest member of
  the "deep RL" family.  It generalizes across states (helpful for rare
  runtime-variance combinations) at the cost of a dot product per action
  per decision — the latency overhead the paper avoids.
- :class:`MlpQNetwork` — a small two-layer neural Q-network trained by
  semi-gradient backpropagation (numpy only): the proper "deep RL" point
  of the paper's comparison, with nonlinearity between the state features
  and the action values.

The ablation benchmark (``benchmarks/test_ablation_rl.py``) compares the
learners on decision quality and per-decision overhead.
"""

from __future__ import annotations

import numpy as np

from repro.common import ConfigError, make_rng
from repro.core.qlearning import QLearningConfig, QTable

__all__ = ["SarsaTable", "LinearQFunction", "MlpQNetwork"]


class SarsaTable(QTable):
    """On-policy TD(0) action-value table (SARSA).

    SARSA bootstraps on A', the action selected at the *next* cycle,
    which the cycle that calls :meth:`update` has not chosen yet.  So the
    update runs one call late: the call at cycle t completes cycle t-1's
    update with (S_t, A_t) as (S', A'), then parks (S_t, A_t, R_t) for
    the next call.  The first call applies nothing and returns ``0.0``;
    ``next_state`` is unused, because S' is the next call's ``state``.
    """

    _pending = None

    def update(self, state, action, reward, next_state):
        """SARSA update, deferred by one call:

        Q(S,A) <- Q(S,A) + gamma [R + mu Q(S',A') - Q(S,A)]
        """
        pending, self._pending = self._pending, (state, action, reward)
        if pending is None:
            return 0.0
        prev_state, prev_action, prev_reward = pending
        gamma = self.config.learning_rate
        mu = self.config.discount
        target = prev_reward + mu * float(self.values[state, action])
        delta = gamma * (target - self.values[prev_state, prev_action])
        self.values[prev_state, prev_action] += delta
        self.visits[prev_state, prev_action] += 1
        self.update_count += 1
        return float(delta)


class _FeatureQFunction:
    """What the function approximators share: the one-hot state features,
    the masked greedy picks and the per-state visit ledger.

    Subclasses provide ``q_values(state)``, ``update`` and
    ``memory_bytes``.  The visit ledger has the table's shape, so the
    engine's trained-table rule (only actions tried in a state are
    eligible, unvisited states borrow a trained sibling's pick) means the
    same for every learner.
    """

    def __init__(self, state_space, num_actions, config):
        if num_actions < 1:
            raise ConfigError("need at least one action")
        self.state_space = state_space
        self.config = config
        self._radices = [f.num_bins for f in state_space.features]
        self.dim = sum(self._radices) + 1
        self.visits = np.zeros((state_space.size, num_actions),
                               dtype=np.uint32)
        self.update_count = 0

    @property
    def num_actions(self):
        return self.visits.shape[1]

    def features_of(self, state):
        """Decode a flat state index into the one-hot feature vector."""
        phi = np.zeros(self.dim)
        offset = 0
        digits = []
        remaining = state
        for radix in reversed(self._radices):
            digits.append(remaining % radix)
            remaining //= radix
        for radix, digit in zip(self._radices, reversed(digits)):
            phi[offset + digit] = 1.0
            offset += radix
        phi[-1] = 1.0  # bias
        return phi

    def best_action(self, state, allowed=None):
        """argmax_a Q(state, a), masked as :meth:`QTable.best_action`."""
        values = self.q_values(state)
        if allowed is not None and np.any(allowed):
            values = np.where(allowed, values, -np.inf)
        return int(np.argmax(values))

    def best_visited_action(self, state, allowed=None):
        """argmax over the actions tried in ``state``, masked as
        :meth:`QTable.best_visited_action`."""
        visited = self.visits[state].nonzero()[0]
        if allowed is not None:
            visited = visited[np.asarray(allowed, dtype=bool)[visited]]
        if not visited.size:
            return self.best_action(state, allowed)
        return int(visited[self.q_values(state)[visited].argmax()])

    def _visit(self, state, action):
        self.visits[state, action] += 1
        self.update_count += 1


class LinearQFunction(_FeatureQFunction):
    """Q(s, a) = w_a . phi(s) with a one-hot-per-feature state encoding.

    ``phi`` concatenates a one-hot vector per state feature plus a bias,
    so knowledge generalizes across states that share feature values —
    e.g. everything learned under "weak Wi-Fi" transfers to any network's
    weak-Wi-Fi state.  Decisions cost a (num_actions x dim) matrix-vector
    product instead of a row lookup.
    """

    def __init__(self, state_space, num_actions,
                 config=QLearningConfig(), seed=None):
        super().__init__(state_space, num_actions, config)
        rng = make_rng(seed)
        self.weights = rng.uniform(
            config.init_low, config.init_high,
            size=(num_actions, self.dim),
        ) / self.dim

    def q_values(self, state):
        return self.weights @ self.features_of(state)

    def update(self, state, action, reward, next_state):
        """Semi-gradient Q-learning update on the linear approximator."""
        phi = self.features_of(state)
        mu = self.config.discount
        # A smaller step than the tabular learning rate: each update
        # touches many weights, so the tabular 0.9 would oscillate.
        step = self.config.learning_rate / max(1.0, phi.sum())
        target = reward + mu * float(np.max(self.q_values(next_state)))
        delta = target - float(self.weights[action] @ phi)
        self.weights[action] += step * delta * phi
        self._visit(state, action)
        return float(step * delta)

    @property
    def memory_bytes(self):
        return self.weights.nbytes


class MlpQNetwork(_FeatureQFunction):
    """A two-layer neural Q-network over the one-hot state features.

    ``Q(s, .) = W2 . relu(W1 . phi(s) + b1) + b2`` with all action values
    produced by one forward pass.  Trained by semi-gradient Q-learning:
    only the executed action's output receives the TD error.  This is the
    paper's "deep RL" point — it can represent nonlinear interactions the
    linear model cannot, at the cost of a forward pass per decision and a
    backward pass per update.
    """

    def __init__(self, state_space, num_actions,
                 config=QLearningConfig(), hidden=32, seed=None,
                 step_size=0.05):
        super().__init__(state_space, num_actions, config)
        if hidden < 1:
            raise ConfigError("need at least one hidden unit")
        if step_size <= 0:
            raise ConfigError("step size must be positive")
        self.step_size = step_size
        rng = make_rng(seed)
        scale1 = (2.0 / self.dim) ** 0.5
        scale2 = (2.0 / hidden) ** 0.5
        self.w1 = rng.normal(0.0, scale1, size=(hidden, self.dim))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.normal(0.0, scale2, size=(num_actions, hidden))
        # Bias the outputs slightly optimistic, like the tabular init.
        self.b2 = rng.uniform(config.init_low, config.init_high,
                              size=num_actions)

    def _forward(self, phi):
        pre = self.w1 @ phi + self.b1
        hidden = np.maximum(pre, 0.0)
        return self.w2 @ hidden + self.b2, hidden, pre

    def q_values(self, state):
        values, _, _ = self._forward(self.features_of(state))
        return values

    def update(self, state, action, reward, next_state):
        """Semi-gradient Q-learning step through the network."""
        phi = self.features_of(state)
        values, hidden, pre = self._forward(phi)
        mu = self.config.discount
        target = reward + mu * float(np.max(self.q_values(next_state)))
        error = target - float(values[action])

        # Backprop the single-output TD error.
        grad_w2_row = error * hidden
        grad_hidden = error * self.w2[action]
        grad_pre = grad_hidden * (pre > 0.0)
        self.w2[action] += self.step_size * grad_w2_row
        self.b2[action] += self.step_size * error
        self.w1 += self.step_size * np.outer(grad_pre, phi)
        self.b1 += self.step_size * grad_pre

        self._visit(state, action)
        return float(self.step_size * error)

    @property
    def memory_bytes(self):
        return (self.w1.nbytes + self.b1.nbytes + self.w2.nbytes
                + self.b2.nbytes)

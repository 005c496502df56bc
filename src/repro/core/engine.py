"""The AutoScale execution-scaling engine (Fig. 8 / Algorithm 1).

For each inference the engine (1) identifies the current execution state —
NN characteristics plus runtime variance; (2) selects an action (execution
target) from its Q-table via epsilon-greedy; (3) executes the inference on
that target; (4) computes the reward from the measured latency, the
estimated energy, and the stored accuracy; and (5) updates the Q-table.

The engine instruments its own decision/update path with wall-clock
timers, which is what the Section VI-C overhead analysis measures.

One private cycle runs that loop body.  :meth:`AutoScale.step` and
:meth:`AutoScale.step_with_action` are single calls to it, and
:meth:`AutoScale.run` loops over it; every execution goes through the
environment's one executor,
:meth:`~repro.env.environment.EdgeCloudEnvironment.execute`.
Algorithm 1's s <- s' carry lives once, in :meth:`AutoScale.observe`
and :meth:`AutoScale.state_of`; every decision-path observe and encode
goes through them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.common import ConfigError, make_rng, slot_init
from repro.core.convergence import ConvergenceDetector
from repro.core.qlearning import QLearningConfig, QTable
from repro.core.reward import RewardConfig, compute_reward
from repro.core.state import table_i_state_space

__all__ = ["AutoScaleStep", "BoundedHistory", "OverheadStats",
           "StreamingSeries", "AutoScale"]


@slot_init
@dataclass(frozen=True, slots=True)
class AutoScaleStep:
    """Everything produced by one observe-select-execute-update cycle.

    ``q_delta`` is the signed Q-table increment the update applied
    (``0.0`` with training frozen) — the raw temporal-difference signal
    the policy guard's surge detector consumes.
    """

    state: int
    action: int
    target_key: str
    reward: float
    result: object
    explored: bool
    q_delta: float = 0.0


class StreamingSeries:
    """A per-step timing series with O(1) memory.

    Long training campaigns (paper scale: 100 runs x 8 networks x 9
    scenarios, multiplied across devices) used to retain every per-step
    timing float forever.  This accumulator keeps the exact count and
    sum — so means stay exact — plus a bounded sample for percentiles,
    thinned *deterministically*: when the sample buffer fills, every
    other element is dropped and the keep-stride doubles.  No RNG is
    involved, so instrumented and non-instrumented runs consume
    identical random streams.
    """

    __slots__ = ("count", "total", "_capacity", "_stride", "_sample",
                 "_until_keep")

    def __init__(self, capacity=4096):
        if capacity < 2:
            raise ConfigError(
                f"sample capacity must be >= 2, got {capacity}"
            )
        self._capacity = capacity
        self.clear()

    def append(self, value):
        # Hot path: called once or twice per Algorithm-1 step.  A
        # countdown to the next retained sample keeps the common case
        # to three attribute updates and one branch.
        self.count += 1
        self.total += value
        self._until_keep -= 1
        if self._until_keep <= 0:
            if len(self._sample) >= self._capacity:
                self._sample = self._sample[::2]
                self._stride *= 2
            self._sample.append(value)
            self._until_keep = self._stride

    def clear(self):
        self.count = 0
        self.total = 0.0
        self._stride = 1
        self._sample = []
        self._until_keep = 1

    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, q):
        """Approximate percentile from the thinned sample (exact until
        ``count`` exceeds the sample capacity)."""
        if not self._sample:
            return 0.0
        return float(np.percentile(self._sample, q))

    @property
    def sample(self):
        """The retained (deterministically thinned) sample values."""
        return list(self._sample)

    def __len__(self):
        return self.count

    def __bool__(self):
        return self.count > 0

    def __iter__(self):
        return iter(self._sample)


@dataclass
class OverheadStats:
    """Accumulated engine overhead (Section VI-C).

    ``select_us`` covers state lookup + action choice (the inference-time
    overhead of a trained table); ``update_us`` additionally covers reward
    calculation and the Q update (the training-time overhead).  Both are
    :class:`StreamingSeries` — exact count/mean, bounded memory.
    """

    select_us: StreamingSeries = field(default_factory=StreamingSeries)
    update_us: StreamingSeries = field(default_factory=StreamingSeries)

    def mean_select_us(self):
        return self.select_us.mean()

    def mean_update_us(self):
        return self.update_us.mean()

    def mean_train_us(self):
        """Full training-path overhead per inference (select + update)."""
        return self.mean_select_us() + self.mean_update_us()


class BoundedHistory(list):
    """A step log with a hard cap on retained entries.

    Every Algorithm-1 cycle appends an :class:`AutoScaleStep` (which
    holds the full :class:`ExecutionResult`, detail dict included), so
    unbounded retention dominated memory on paper-scale campaigns.  When
    the cap is hit the *oldest quarter* is spliced out in one move —
    amortized O(1) per append — and counted in ``dropped``.  Recent-
    window consumers (slicing, ``history[-1]``, reward traces) keep the
    plain-``list`` interface; monotonic consumers should read ``total``.
    """

    #: Default retention: ~100k steps, comfortably above any single
    #: protocol in the repo (paper scale trains 900 episodes per case).
    DEFAULT_MAXLEN = 100_000

    def __init__(self, maxlen=DEFAULT_MAXLEN):
        super().__init__()
        if maxlen < 4:
            raise ConfigError(f"history cap must be >= 4, got {maxlen}")
        self.maxlen = maxlen
        self.dropped = 0

    def append(self, item):
        if len(self) >= self.maxlen:
            cut = self.maxlen // 4
            del self[:cut]
            self.dropped += cut
        super().append(item)

    @property
    def total(self):
        """Monotonic count of every step ever appended."""
        return len(self) + self.dropped


class AutoScale:
    """The adaptive execution-scaling engine.

    Args:
        environment: an :class:`~repro.env.EdgeCloudEnvironment`.
        state_space: defaults to the Table-I space (3,072 states).
        action_space: defaults to the environment's ``action_space``.
        config: Q-learning hyperparameters (paper defaults).
        reward: reward weights/normalization.
        seed: RNG seed for exploration and Q-table initialization.
        qtable: the value learner; defaults to a :class:`QTable` drawn
            from the engine's RNG.  Any learner with the methods the
            cycle calls on ``QTable`` (``best_action``,
            ``best_visited_action``, a ``(states x actions)`` ``visits``
            ledger, ``update``, ``memory_bytes``) can be passed, e.g. the
            Section IV alternatives of :mod:`repro.core.alternatives`;
            a passed learner draws nothing from the engine's RNG.
    """

    def __init__(self, environment, state_space=None, action_space=None,
                 config=None, reward=None, seed=None, qtable=None):
        self.environment = environment
        self.state_space = state_space or table_i_state_space()
        self.action_space = action_space or environment.action_space
        self.config = config or QLearningConfig()
        self.reward_config = reward or RewardConfig()
        self.rng = make_rng(seed)
        if qtable is None:
            qtable = QTable(
                self.state_space.size, len(self.action_space),
                config=self.config, seed=self.rng,
            )
        self.qtable = qtable
        self.overhead = OverheadStats()
        self.convergence = ConvergenceDetector()
        self.training = True
        self.history = BoundedHistory()
        # Per-engine constants of the per-step path, bound once.
        self._targets = self.action_space.targets
        self._select_append = self.overhead.select_us.append
        self._update_append = self.overhead.update_us.append
        self._history_append = self.history.append
        # The carry (see observe) and the encode memo (see state_of).
        self._carried_scenario = self._carried = None
        self._states = {}

    # ------------------------------------------------------------------
    # Mode control
    # ------------------------------------------------------------------

    def freeze(self):
        """Stop exploring and learning; use the trained table greedily."""
        self.training = False

    def unfreeze(self):
        self.training = True

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------

    def observe(self):
        """Step 1's runtime-variance sample, through the carry.

        A static scenario (Table IV's S1-S5) draws no RNG and never
        changes, so an observation taken under one is reused for as long
        as ``environment.scenario`` is that same object; a dynamic one
        is sampled on every call and ends any carry.  No observable
        changes.  The carry outlives steps, runs and clock rewinds, so a
        carried ``now_ms`` may be older or newer than the clock and no
        rule may compare the two.
        """
        env = self.environment
        scenario = env.scenario
        if scenario is self._carried_scenario:
            return self._carried
        observation = env.observe()
        if env.scenario_is_static:
            self._carried_scenario, self._carried = scenario, observation
        else:
            self._carried_scenario = self._carried = None
        return observation

    def carries(self, observation):
        """Whether :meth:`observe` would return ``observation`` now."""
        return (observation is self._carried
                and self.environment.scenario is self._carried_scenario)

    def observe_state(self, network, observation):
        """Step 1: encode (NN characteristics, runtime variance)."""
        return self.state_space.encode(network, observation)

    def state_of(self, network, observation):
        """:meth:`observe_state`, memoized per network name on the
        network and observation objects (both immutable)."""
        entry = self._states.get(network.name)
        if entry is None or entry[0] is not network \
                or entry[1] is not observation:
            entry = self._states[network.name] = (
                network, observation,
                self.observe_state(network, observation))
        return entry[2]

    def select_action(self, state, explore=None, allowed=None):
        """Step 2: epsilon-greedy over the Q-table.

        ``allowed`` — an optional boolean mask over the action space
        (the resilient service passes one derived from its circuit
        breakers) — restricts every branch to the True entries, so a
        broken remote target is not even exploration-eligible.  A mask
        with no True entry is treated as no mask.

        Returns ``(action_index, explored)``.
        """
        if explore is None:
            explore = self.training
        if allowed is not None and not np.any(allowed):
            allowed = None
        started = time.perf_counter()
        if explore and self.rng.random() < self.config.epsilon:
            if allowed is None:
                action = int(self.rng.integers(len(self._targets)))
            else:
                candidates = np.flatnonzero(allowed)
                action = int(candidates[
                    self.rng.integers(len(candidates))
                ])
            explored = True
        elif explore:
            # Training-time exploitation: plain argmax, so untried
            # actions' optimistic init values drive directed exploration.
            action = self.qtable.best_action(state, allowed)
            explored = False
        else:
            # Trained-table usage: only actions with at least one real
            # reward are eligible (Section IV-B's "after the learning is
            # complete, the Q-table is used to select A").  States never
            # visited during training fall back to the nearest trained
            # sibling state of the same network (see _sibling_fallback).
            if np.count_nonzero(self.qtable.visits[state]):
                action = self.qtable.best_visited_action(state, allowed)
            else:
                action = self._sibling_fallback(state, allowed)
            explored = False
        self._select_append((time.perf_counter() - started) * 1e6)
        return action, explored

    def _variance_block_size(self):
        """States per network: the product of the trailing runtime-
        variance features' bin counts.

        Table I orders features network-first, so states of the same
        network occupy one contiguous block of this size.  Returns 0 when
        the layout does not follow that convention (custom spaces), which
        disables the sibling fallback.
        """
        size = 1
        seen_variance = False
        for feature in self.state_space.features:
            is_variance = feature.name.startswith(("s_co_", "s_rssi"))
            if is_variance:
                seen_variance = True
                size *= feature.num_bins
            elif seen_variance:
                return 0  # NN feature after a variance feature
        return size if seen_variance else 0

    def _sibling_fallback(self, state, allowed=None):
        """Greedy action for an unvisited state.

        A deployed table can meet a runtime-variance combination it was
        never trained under (e.g. a co-runner burst level unseen during
        training).  The network's identity dominates the decision, so we
        borrow the best visited action from the *nearest trained state of
        the same network* — the sibling whose variance-bin vector is
        closest in L1 distance.  With no trained sibling at all, fall
        back to the plain argmax (random-init exploration behaviour).
        """
        block = self._variance_block_size()
        if block <= 0:
            return self.qtable.best_action(state, allowed)
        base = (state // block) * block
        offset = state - base
        best_action, best_distance = None, None
        for sibling_offset in range(block):
            sibling = base + sibling_offset
            if not np.count_nonzero(self.qtable.visits[sibling]):
                continue
            distance = self._bin_distance(offset, sibling_offset)
            if best_distance is None or distance < best_distance:
                best_distance = distance
                best_action = self.qtable.best_visited_action(
                    sibling, allowed)
        if best_action is None:
            return self.qtable.best_action(state, allowed)
        return best_action

    def _bin_distance(self, offset_a, offset_b):
        """L1 distance between two variance-bin vectors (by offset)."""
        radices = [
            feature.num_bins
            for feature in self.state_space.features
            if feature.name.startswith(("s_co_", "s_rssi"))
        ]
        distance = 0
        for radix in reversed(radices):
            distance += abs(offset_a % radix - offset_b % radix)
            offset_a //= radix
            offset_b //= radix
        return distance

    def step(self, use_case, observation=None, allowed_actions=None,
             deadline_ms=None):
        """One full Algorithm-1 cycle for an inference request.

        Observes the state, selects and executes an action, computes the
        reward, observes the successor state, and (in training mode)
        updates the Q-table.  Returns an :class:`AutoScaleStep`.

        ``allowed_actions`` (boolean mask) and ``deadline_ms`` are the
        resilient serving hooks: the mask keeps circuit-broken targets
        out of selection, the deadline aborts remote attempts that would
        overrun it (the aborted attempt still bills its energy and feeds
        the Q update, so the table learns the target is flaky).
        """
        return self._cycle(use_case, observation, allowed=allowed_actions,
                           deadline_ms=deadline_ms)

    def step_with_action(self, use_case, action, observation,
                         explored=False, deadline_ms=None):
        """:meth:`step` with the selection already made.

        The serving drain selects once per ``(network, state)`` group
        and completes each coalesced request here: execute, reward,
        successor observation and Q update run per request in the same
        cycle as :meth:`step`, so the learning dynamics are identical.
        """
        if not 0 <= action < len(self._targets):
            raise ConfigError(
                f"action {action} outside the "
                f"{len(self._targets)}-action space"
            )
        return self._cycle(use_case, observation, action, explored,
                           deadline_ms=deadline_ms)

    def run(self, use_case, num_inferences, stop_on_convergence=False):
        """Run up to ``num_inferences`` Algorithm-1 cycles for one use case.

        Returns the steps taken.  With ``stop_on_convergence`` the
        episode ends right after the step on which the reward converged
        (the online-adaptation protocol).  A plain loop over the cycle
        :meth:`step` runs, bit-identical to calling :meth:`step` per
        inference.
        """
        if num_inferences < 1:
            raise ConfigError("num_inferences must be >= 1")
        cycle = self._cycle
        convergence = self.convergence
        steps = []
        for _ in range(num_inferences):
            steps.append(cycle(use_case))
            if stop_on_convergence and convergence.converged:
                break
        return steps

    def _cycle(self, use_case, observation=None, action=None,
               explored=False, allowed=None, deadline_ms=None):
        """Algorithm 1 once: observe unless given, encode, select unless
        given, then execute, reward, successor observe/encode, update,
        record.  Under a static scenario the successor is the observation
        in hand unless a kernel event swapped the scenario mid-execute.
        """
        env = self.environment
        network = use_case.network
        if observation is None:
            observation = self.observe()
        state = self.state_of(network, observation)
        if action is None:
            action, explored = self.select_action(state, allowed=allowed)
        target = self._targets[action]
        result = env.execute(network, target, observation,
                             deadline_ms=deadline_ms)

        started = time.perf_counter()
        reward = compute_reward(result, use_case, self.reward_config)
        q_delta = 0.0
        if self.training:
            successor = self.observe()
            # Encoded outside the memo, which keeps the decision's entry.
            next_state = state if successor is observation else \
                self.observe_state(network, successor)
            q_delta = self.qtable.update(state, action, reward, next_state)
            # Exploration steps are deliberate off-policy probes; feeding
            # their rewards to the detector would make the "converged"
            # reward stream look noisy forever.
            if not explored:
                self.convergence.observe(reward, executed_action=action)
        self._update_append((time.perf_counter() - started) * 1e6)

        # Positional, in field order: this runs once per inference.
        record = AutoScaleStep(state, action, target.key, reward, result,
                               explored, q_delta)
        self._history_append(record)
        return record

    # ------------------------------------------------------------------
    # Prediction (trained-table usage)
    # ------------------------------------------------------------------

    def predict(self, network, observation):
        """The greedy execution target for a (network, observation) pair."""
        state = self.state_of(network, observation)
        action, _ = self.select_action(state, explore=False)
        return self.action_space.target(action)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def converged(self):
        return self.convergence.converged

    @property
    def total_steps(self):
        """Monotonic count of Algorithm-1 cycles ever run.

        Unlike ``len(engine.history)`` this survives the history cap —
        long-lived serving deployments report it as inferences served.
        """
        return self.history.total

    def memory_footprint_bytes(self):
        """Q-table resident size (Section VI-C reports ~0.4 MB)."""
        return self.qtable.memory_bytes

    def rewards(self):
        """The reward trace of every step taken so far."""
        return [step.reward for step in self.history]

"""The Opt oracle (Section V-A, footnote 8).

The paper constructs Opt by measuring the entire ~200,000-point design
space (3,072 states x ~66 actions) and, for each state, recording the
setup with the highest energy efficiency that meets the QoS and accuracy
requirements.  Our oracle does the same against the deterministic nominal
model: for the *current* observation it evaluates every target and picks
the minimum-energy one among those satisfying both constraints; when no
target can satisfy the QoS constraint (e.g. a heavy network under weak
Wi-Fi), it falls back to the minimum-energy accuracy-feasible target —
which is why even Opt shows a nonzero QoS-violation ratio in Fig. 9.
"""

from __future__ import annotations

from repro.baselines.base import Scheduler
from repro.common import SimulationError

__all__ = ["OptOracle"]


class OptOracle(Scheduler):
    """Exhaustive nominal-model search over the full action space.

    The search runs through the environment's ``estimate_all`` — one
    vectorized sweep of every target — and the sweep's ``argbest``
    ranks them: feasibility first (accuracy, then QoS), then energy.
    """

    name = "opt"

    def __init__(self):
        self._cache = {}

    def _cache_key(self, use_case, state_key):
        return (use_case.name, state_key)

    def select(self, environment, use_case, observation, state_key=None):
        """The oracle target for this observation.

        ``state_key`` memoizes the search per discretized state (the
        paper's Opt is defined per state, not per raw observation); pass
        e.g. a Table-I state index.  Without one nothing is cached.
        """
        if state_key is None:
            return self._search(environment, use_case, observation)
        key = self._cache_key(use_case, state_key)
        best = self._cache.get(key)
        if best is None:
            best = self._cache[key] = self._search(environment, use_case,
                                                   observation)
        return best

    def _search(self, environment, use_case, observation):
        sweep = environment.estimate_all(use_case.network, observation)
        index = sweep.argbest(use_case)
        if index is None:
            raise SimulationError(
                f"no accuracy-feasible target exists for {use_case.name}"
            )
        return sweep.targets[index]

    def evaluate(self, environment, use_case, observation):
        """The oracle's nominal (energy, latency) at its chosen target."""
        target = self.select(environment, use_case, observation)
        sweep = environment.estimate_all(use_case.network, observation)
        return target, sweep.result_for(target)

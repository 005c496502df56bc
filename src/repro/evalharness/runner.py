"""Experiment runner: the paper's training/evaluation protocol.

Section V-C: to cover the design space, AutoScale trains with repeated
inference runs for each network in each runtime-variance state; testing
uses *leave-one-out cross-validation* across the networks — the Q-table
used to test a network was trained on the other nine.  Because AutoScale
is a continuous learner, testing starts from the transferred table, adapts
online until the reward converges, then the trained table is used greedily
(Section IV-B) while measurements are taken.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.oracle import OptOracle
from repro.common import ConfigError
from repro.core.engine import AutoScale
from repro.env.scenarios import build_scenario
from repro.evalharness.metrics import EpisodeStats, decision_match

__all__ = [
    "RunConfig",
    "train_autoscale",
    "adapt_engine",
    "evaluate_autoscale",
    "evaluate_scheduler",
    "loo_train_and_evaluate",
    "oracle_energies",
]


@dataclass(frozen=True)
class RunConfig:
    """Episode sizes for training and evaluation.

    The paper trains with 100 runs per network per variance state; the
    defaults here are scaled for simulation-speed experiments and can be
    raised to paper scale by the benchmarks.
    """

    train_runs: int = 40
    adapt_runs: int = 50
    eval_runs: int = 30
    #: Dynamic (D1-D4) scenarios interleave several runtime-variance
    #: states within one episode, so each state sees only a fraction of
    #: the adaptation budget; scale the budget up so each state still
    #: receives roughly the paper's per-state training (the paper trains
    #: 100 runs per network per variance state and notes dynamic
    #: environments converge ~9% slower).
    dynamic_adapt_scale: float = 6.0

    def __post_init__(self):
        if min(self.train_runs, self.adapt_runs, self.eval_runs) < 1:
            raise ConfigError("run counts must be >= 1")
        if self.dynamic_adapt_scale < 1.0:
            raise ConfigError("dynamic_adapt_scale must be >= 1")

    def adapt_budget(self, scenario):
        """Adaptation runs for a scenario (scaled up when dynamic)."""
        if scenario.dynamic:
            return int(self.adapt_runs * self.dynamic_adapt_scale)
        return self.adapt_runs


def train_autoscale(engine, use_cases, scenarios=("S1",),
                    runs_per_case=40):
    """Train an engine across use cases and Table-IV scenarios.

    The engine's environment is switched through each scenario; within a
    scenario every use case gets ``runs_per_case`` Algorithm-1 cycles
    (:meth:`~repro.core.engine.AutoScale.run`).
    """
    env = engine.environment
    for scenario_name in scenarios:
        env.scenario = build_scenario(scenario_name) \
            if isinstance(scenario_name, str) else scenario_name
        env.rewind_clock()
        for use_case in use_cases:
            engine.run(use_case, runs_per_case)
    return engine


def adapt_engine(engine, use_case, max_runs=50,
                 stop_on_convergence=True):
    """Online adaptation on a (possibly unseen) use case.

    Stops early once the reward converges unless
    ``stop_on_convergence=False`` — in *dynamic* environments the
    detector converges on the most frequent variance state long before
    the rare states are trained, so those runs must use the full budget.
    Returns ``convergence.converged_at``.
    """
    engine.unfreeze()
    engine.convergence.reset()
    engine.run(use_case, max_runs, stop_on_convergence=stop_on_convergence)
    return engine.convergence.converged_at


def oracle_energies(env, use_case, observation, chosen, optimal):
    """Nominal energies (mJ) of a chosen target and Opt's pick.

    Both come from one sweep of the use case's network under
    ``observation``, so the pair feeds :func:`decision_match` directly.
    """
    sweep = env.estimate_all(use_case.network, observation)
    return (float(sweep.energy_mj[sweep.index_of(chosen)]),
            float(sweep.energy_mj[sweep.index_of(optimal)]))


def evaluate_autoscale(engine, use_case, eval_runs=30, oracle=None,
                       scenario=None):
    """Frozen greedy evaluation; optionally scores against the oracle."""
    env = engine.environment
    if scenario is not None:
        env.scenario = build_scenario(scenario) \
            if isinstance(scenario, str) else scenario
        env.rewind_clock()
    engine.freeze()
    stats = EpisodeStats(
        scheduler="autoscale", use_case=use_case.name,
        scenario=env.scenario.name, qos_ms=use_case.qos_ms,
    )
    network = use_case.network
    for _ in range(eval_runs):
        observation = engine.observe()
        state = engine.state_of(network, observation)
        # One greedy selection per inference (a frozen select draws no
        # RNG): the oracle scores it and the cycle executes it.
        action, _ = engine.select_action(state)
        matched = None
        if oracle is not None:
            optimal = oracle.select(env, use_case, observation,
                                    state_key=state)
            matched = decision_match(*oracle_energies(
                env, use_case, observation,
                engine.action_space.target(action), optimal,
            ))
        step = engine.step_with_action(use_case, action, observation)
        stats.record(step.result, matched)
    engine.unfreeze()
    return stats


def evaluate_scheduler(environment, scheduler, use_case, eval_runs=30,
                       scenario=None):
    """Measure any baseline scheduler over an episode."""
    if scenario is not None:
        environment.scenario = build_scenario(scenario) \
            if isinstance(scenario, str) else scenario
        environment.rewind_clock()
    stats = EpisodeStats(
        scheduler=scheduler.name, use_case=use_case.name,
        scenario=environment.scenario.name, qos_ms=use_case.qos_ms,
    )
    for _ in range(eval_runs):
        observation = environment.observe()
        result = scheduler.execute(environment, use_case, observation)
        stats.record(result)
    return stats


def loo_train_and_evaluate(environment, use_cases, test_case,
                           scenarios=("S1",), config=RunConfig(),
                           seed=0, oracle=True):
    """The paper's leave-one-out protocol for one held-out use case.

    Trains a fresh engine on every use case *except* ``test_case`` across
    ``scenarios``, then — per scenario — adapts online on the held-out
    case until convergence and evaluates the frozen table.

    ``environment`` is re-armed for the fold (scenario reset, clock
    rewind, fresh RNG stream from ``seed``), so one environment can
    serve every fold: its exact nominal-component caches are
    value-keyed and deterministic, so they survive — every fold after
    the first trains against a warm cache and produces the same results
    a newly built environment would.

    Returns ``(engine, {scenario_name: EpisodeStats})``.
    """
    training_cases = [case for case in use_cases
                      if case.name != test_case.name]
    environment.scenario = scenarios[0]
    environment.reset(seed=seed)
    engine = AutoScale(environment, seed=seed)
    train_autoscale(engine, training_cases, scenarios, config.train_runs)
    opt = OptOracle() if oracle else None
    results = {}
    for scenario_name in scenarios:
        environment.scenario = build_scenario(scenario_name)
        environment.rewind_clock()
        adapt_engine(
            engine, test_case, config.adapt_budget(environment.scenario),
            stop_on_convergence=not environment.scenario.dynamic,
        )
        results[scenario_name] = evaluate_autoscale(
            engine, test_case, config.eval_runs, oracle=opt,
        )
    return engine, results

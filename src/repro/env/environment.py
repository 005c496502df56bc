"""The edge-cloud execution environment.

:class:`EdgeCloudEnvironment` wires a phone, the cloud server, a locally
connected edge device, the two radio links, and a Table-IV scenario into
one object with the interface every scheduler in this repo programs
against:

- ``targets()`` — the execution-scaling action space (Section V-C);
- ``observe()`` — the runtime-variance readings before an inference;
- ``execute(network, target)`` — run the inference, advance virtual time,
  return the measured :class:`ExecutionResult`; the one per-request
  executor every scheduler, trainer and serving drain goes through;
- ``estimate(network, target, observation)`` — the same path with unit
  jitters: the deterministic nominal model (no noise, no clock), which the
  prediction-based baselines fit and the oracle searches;
- ``estimate_all(network, observation)`` — the same nominal model for the
  *whole* action space in one vectorized pass (a
  :class:`~repro.env.costcache.NominalSweep`), which is what every
  exhaustive-search consumer should use.
"""

from __future__ import annotations

import math

from repro.common import ConfigError, Stopwatch, make_rng
from repro.env.costcache import NominalCostEngine
from repro.env.executor import (
    NoiseConfig,
    jitter_slots,
    partitioned_execution,
)
from repro.env.observation import Observation
from repro.env.scenarios import build_scenario
from repro.env.target import ActionSpace, Location, enumerate_targets
from repro.hardware.devices import cloud_server, galaxy_tab_s6
from repro.interference.corunner import ConstantCoRunner
from repro.interference.model import InterferenceModel
from repro.models.accuracy import DEFAULT_ACCURACY
from repro.sim.kernel import EventKernel
from repro.wireless.profiles import default_wifi, default_wifi_direct
from repro.wireless.signal import ConstantSignal

__all__ = ["EdgeCloudEnvironment"]

#: Virtual think-time between consecutive inferences (ms); keeps dynamic
#: scenarios' trace co-runners moving through their phases.
_INTER_ARRIVAL_MS = 150.0

#: ``estimate``'s jitters, indexed by ``target.is_remote``: every slot 1.0.
_UNIT_JITTERS = ((1.0, 1.0), (1.0,) * 5)


class EdgeCloudEnvironment:
    """A phone in an edge-cloud execution environment under a scenario.

    The environment's :class:`~repro.env.target.ActionSpace`, built once
    here as ``action_space``, is the one target index space: engines,
    sweeps and action masks all address targets by its columns.

    Args:
        device: the phone (a :class:`~repro.hardware.devices.Device`).
        cloud: cloud server device; defaults to the Xeon+P100 node.
            Pass ``False`` to remove the cloud path entirely.
        connected: locally connected edge device; defaults to the Galaxy
            Tab S6.  Pass ``False`` to remove it.
        scenario: a :class:`~repro.env.scenarios.Scenario` or a Table-IV
            id string; defaults to ``"S1"``.
        wifi / p2p: radio links; default profiles from
            ``repro.wireless.profiles``.
        interference: contention model; defaults to one sharing the
            device SoC's thermal model.
        accuracy: the pre-measured accuracy table.
        noise: ground-truth stochastic-variance magnitudes.
        seed: RNG seed (or a Generator) for all stochasticity.
        faults: a :class:`~repro.faults.FaultPlan` of request-level
            faults applied to remote attempts; defaults to
            ``FaultPlan.none()``, which changes nothing (no extra RNG
            draws, bit-identical executions).
        think_time_ms: virtual idle time appended to the clock after each
            execution (default 150 ms, the historical closed-loop think
            time).  Open-loop serving (``repro.serving``) sets this to 0
            so the clock is driven by arrivals, not by a synthetic gap.
    """

    def __init__(self, device, cloud=None, connected=None, scenario="S1",
                 wifi=None, p2p=None, interference=None,
                 accuracy=DEFAULT_ACCURACY, noise=None, seed=None,
                 faults=None, think_time_ms=_INTER_ARRIVAL_MS):
        self.device = device
        self.cloud = cloud_server() if cloud is None else (
            None if cloud is False else cloud)
        self.connected = galaxy_tab_s6() if connected is None else (
            None if connected is False else connected)
        if self.cloud is None and self.connected is None:
            raise ConfigError(
                "environment needs at least one remote system or none of "
                "the paper's scale-out experiments can run; pass "
                "cloud=False/connected=False only individually"
            )
        self.scenario = scenario  # property setter normalizes id strings
        self.wifi = wifi if wifi is not None else default_wifi()
        self.p2p = p2p if p2p is not None else default_wifi_direct()
        self.interference = interference if interference is not None else \
            InterferenceModel(thermal=device.soc.thermal)
        self.accuracy = accuracy
        self.noise = noise if noise is not None else NoiseConfig()
        if think_time_ms < 0:
            raise ConfigError(
                f"think time cannot be negative, got {think_time_ms} ms"
            )
        self.think_time_ms = think_time_ms
        self.rng = make_rng(seed)
        self.clock = Stopwatch()
        self.kernel = EventKernel(self.clock)
        self.faults = faults  # property setter builds the injector
        self.action_space = ActionSpace(
            enumerate_targets(device, self.cloud, self.connected))
        self._cost_engine = NominalCostEngine(self)

    # ------------------------------------------------------------------
    # Scenario (swapping one invalidates the nominal-cost cache)
    # ------------------------------------------------------------------

    @property
    def scenario(self):
        return self._scenario

    @scenario.setter
    def scenario(self, scenario):
        if isinstance(scenario, str):
            scenario = build_scenario(scenario)
        self._scenario = scenario
        self._scenario_is_static = (
            isinstance(scenario.corunner, ConstantCoRunner)
            and isinstance(scenario.wlan_signal, ConstantSignal)
            and isinstance(scenario.p2p_signal, ConstantSignal))
        engine = getattr(self, "_cost_engine", None)
        if engine is not None:  # not yet built during __init__
            engine.invalidate()

    @property
    def scenario_is_static(self):
        """True when the scenario draws nothing and never changes.

        Constant co-runner + constant signals (Table IV's S1-S5) sample
        no RNG values and return identical observations every step, so
        the engine's observation carry (its one reader,
        :meth:`~repro.core.engine.AutoScale.observe`) reuses one for as
        long as this scenario object stays installed.  Computed when
        the scenario is set.
        """
        return self._scenario_is_static

    # ------------------------------------------------------------------
    # Fault plan (swappable between serving phases, e.g. chaos sweeps)
    # ------------------------------------------------------------------

    @property
    def faults(self):
        """The active :class:`~repro.faults.FaultPlan`."""
        return self._fault_injector.plan

    @faults.setter
    def faults(self, plan):
        # repro.faults sits above this layer; the function-scope import
        # is RL104's sanctioned escape (as in AutoScaleService.serve).
        from repro.faults.failure import FaultInjector
        self._fault_injector = FaultInjector(plan)

    @property
    def fault_stats(self):
        """The injected-fault counters and billed energy of the current
        plan.

        Each assignment to :attr:`faults` builds a fresh injector, so
        the ledger counts only the attempts made since the last
        assignment (the ``midrun_fault_attach`` fixture pins this).
        """
        return self._fault_injector.stats

    @property
    def noise(self):
        """The :class:`NoiseConfig`; setting it re-derives the jitter
        slots :meth:`execute` draws."""
        return self._noise

    @noise.setter
    def noise(self, noise):
        self._noise = noise
        # Indexed by ``target.is_remote``: the slots, and how many of
        # them draw (the non-``None`` ones).
        self._jitter_slots = (jitter_slots(noise, False),
                              jitter_slots(noise, True))
        self._jitter_draws = tuple(
            sum(sigma is not None for sigma in slots)
            for slots in self._jitter_slots
        )

    # ------------------------------------------------------------------
    # Action space and observations
    # ------------------------------------------------------------------

    def targets(self):
        """The full execution-scaling action space's targets, in
        ``action_space`` order."""
        return self.action_space.targets

    def observe(self):
        """Sample the runtime variance at the current virtual time."""
        load, rssi_wlan_dbm, rssi_p2p_dbm = self.scenario.sample(
            self.rng, self.clock.now_ms
        )
        return Observation(
            cpu_util=load.cpu_util,
            mem_util=load.mem_util,
            rssi_wlan_dbm=rssi_wlan_dbm,
            rssi_p2p_dbm=rssi_p2p_dbm,
            now_ms=self.clock.now_ms,
        )

    def reset(self, seed=None):
        """Rewind the virtual clock (and optionally reseed).

        Reseeding starts a fresh episode, so the memoized nominal sweeps
        are dropped too — a replayed episode must recompute from scratch
        rather than observe another episode's cache population.
        """
        self.kernel.rewind()
        if seed is not None:
            self.rng = make_rng(seed)
            self._cost_engine.invalidate()

    # ------------------------------------------------------------------
    # Clock funnels
    # ------------------------------------------------------------------
    # The environment owns the virtual timeline's *interface*; the
    # event kernel (repro.sim) owns its *writes*.  Every component that
    # needs to move time — arrival idle gaps, retry backoff, profiling
    # sweeps, episode rewinds — goes through these three methods, which
    # delegate to the kernel so pending timeline events (retry timers,
    # guard ticks, timers) fire in deterministic order as time passes.
    # reprolint's RL103 enforces the funnel: only the kernel and the
    # Stopwatch primitive may write the clock.

    def advance_clock(self, delta_ms):
        """Advance the virtual clock by ``delta_ms`` (>= 0)."""
        self.kernel.advance_by(delta_ms)

    def advance_clock_to(self, at_ms):
        """Advance the virtual clock to ``at_ms`` if it is in the future.

        A target at or behind the current time is a no-op — arrivals
        already in the past start service immediately.
        """
        self.kernel.advance_to(at_ms)

    def rewind_clock(self):
        """Rewind the virtual clock to zero without reseeding.

        Pending timeline events are dropped.  Outage coverage needs no
        re-arming: it is a function of the plan and the clock.
        """
        self.kernel.rewind()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _remote_setup(self, target):
        if target.location is Location.CLOUD:
            if self.cloud is None:
                raise ConfigError("no cloud system in this environment")
            return self.cloud, self.wifi
        if self.connected is None:
            raise ConfigError("no connected edge device in this environment")
        return self.connected, self.p2p

    def _rssi_for(self, target, observation):
        return (observation.rssi_wlan_dbm
                if target.location is Location.CLOUD
                else observation.rssi_p2p_dbm)

    def execute(self, network, target, observation=None, deadline_ms=None):
        """Run one inference and advance virtual time.

        If ``observation`` is omitted, a fresh one is sampled — this is
        the normal serving loop: observe, decide, execute.

        The nominal components (latency, link transfer times) come from
        the cost engine's exact value-keyed caches; the jitters are
        drawn in the pinned slot order
        (:func:`~repro.env.executor.jitter_slots`), all in one
        ``standard_normal(k)`` call, and the target's
        finisher applies eq. (1)-(4).  The result is bit-identical to
        the layer-walk reference in the test suite with the same RNG.

        With an active fault plan, a remote attempt may come back as a
        :class:`~repro.faults.FailedAttempt` that bills the energy the
        dead attempt burned.  ``deadline_ms`` (used by the resilient
        serving path) aborts a remote attempt whose completion would run
        past it, independent of the fault plan.  The clock advances by
        whatever time the attempt actually consumed.
        """
        if observation is None:
            observation = self.observe()
        finish, args = self._cost_engine.finishing_inputs(network, target,
                                                          observation)
        remote = target.location is not Location.LOCAL
        # One vector draw: the Generator fills it with the same
        # sequential ziggurat draws as k scalar calls.  The exp stays
        # math.exp per element; np.exp may differ from libm in the last
        # bit.
        slots = self._jitter_slots[remote]
        draws = self.rng.standard_normal(self._jitter_draws[remote]).tolist()
        exp = math.exp
        if len(draws) == len(slots):  # every slot draws (the default)
            jitters = [exp(sigma * draw)
                       for sigma, draw in zip(slots, draws)]
        else:
            draws = iter(draws)
            jitters = [exp(sigma * next(draws)) if sigma is not None
                       else 1.0 for sigma in slots]
        result = finish(*args, jitters)
        injector = self._fault_injector
        if remote and (injector.active or deadline_ms is not None):
            _, link = self._remote_setup(target)
            idle_power_mw = (self.device.soc.platform_idle_mw
                             + self.device.soc.cpu.idle_power_mw
                             + link.idle_power_mw)
            result = injector.apply(
                result, target, link, self._rssi_for(target, observation),
                self.clock.now_ms, self.rng, idle_power_mw,
                deadline_ms=deadline_ms,
            )
        self.kernel.advance_by(result.latency_ms + self.think_time_ms)
        return result

    def estimate(self, network, target, observation):
        """Deterministic nominal model: no noise, no clock advance.

        :meth:`execute`'s path with every jitter 1.0 and no RNG draw.
        """
        finish, args = self._cost_engine.finishing_inputs(network, target,
                                                          observation)
        return finish(*args, _UNIT_JITTERS[target.is_remote])

    def estimate_all(self, network, observation):
        """Nominal model for **every** target in one vectorized pass.

        Returns a :class:`~repro.env.costcache.NominalSweep` whose arrays
        are index-aligned with ``targets()`` and equal per-target
        :meth:`estimate` calls bit for bit at the observation that
        computed them.  Sweeps are memoized on ``(network.name,
        discretized load, discretized RSSI)``: a hit returns the sweep
        of the first observation in its bin.
        """
        return self._cost_engine.sweep(network, observation)

    @property
    def cost_engine(self):
        """The nominal-cost engine (exact caches, sweeps, invalidation)."""
        return self._cost_engine

    # ------------------------------------------------------------------
    # Layer-granularity execution (baseline schedulers)
    # ------------------------------------------------------------------

    def execute_split(self, network, split_point, local_target,
                      remote_target, observation=None, deterministic=False):
        """NeuroSurgeon-style split execution (head local, tail remote).

        A split at 0 (everything remote) or at the last layer (everything
        local) is a whole-model run: it goes through :meth:`execute`, or
        :meth:`estimate` when ``deterministic``, like any other
        whole-model target (an active fault plan included).
        """
        if observation is None:
            observation = self.observe()
        if split_point in (0, len(network.layers)):
            target = local_target if split_point else remote_target
            if deterministic:
                return self.estimate(network, target, observation)
            return self.execute(network, target, observation)
        rng = None if deterministic else self.rng
        remote, link = self._remote_setup(remote_target)
        result = partitioned_execution(
            self.device, remote, network, split_point, local_target,
            remote_target, link, self._rssi_for(remote_target, observation),
            observation, self.interference, self.accuracy,
            self._cost_engine.layer_terms, rng=rng, noise=self.noise,
        )
        if not deterministic:
            self.kernel.advance_by(result.latency_ms + self.think_time_ms)
        return result

    def execute_pipelined(self, network, segments, observation=None,
                          deterministic=False):
        """MOSAIC-style sliced execution across local processors.

        The plan's per-plan constants are resolved once per ``(network,
        segments)`` by the cost engine
        (:meth:`~repro.env.costcache.NominalCostEngine.pipeline`).
        """
        if observation is None:
            observation = self.observe()
        rng = None if deterministic else self.rng
        result = self._cost_engine.pipeline(network, segments)(
            observation, self.interference, rng,
            self.noise)
        if not deterministic:
            self.kernel.advance_by(result.latency_ms + self.think_time_ms)
        return result

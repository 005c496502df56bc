"""Batched nominal-cost engine for the oracle/baseline hot path.

Every figure benchmark and the Opt oracle's footnote-8 construction sweep
the full ~66-target action space through the nominal model for each
observation.  Doing that one scalar :meth:`EdgeCloudEnvironment.estimate`
call at a time costs ~66 Python call chains per observation.  This module
evaluates **all** targets for one ``(network, observation)`` in a single
vectorized numpy pass:

- each local ``(role, precision)`` pair's per-layer term table
  (:meth:`~repro.hardware.processor.Processor.layer_terms`) is built once
  per network and summed by
  :func:`~repro.hardware.processor.sum_layer_terms`, which yields every
  V/F step's latency at once; remote compute times come from the same
  exact per-``(network, target)`` constants ``execute`` reads;
- a sweep then costs a handful of numpy operations plus a few scalar
  interference-model calls, instead of ~66 Python call chains;
- full sweep results are memoized behind a bounded LRU keyed on
  ``(network.name, discretized load, discretized RSSI)`` with hit/miss
  counters and explicit invalidation on scenario/device change.

The sweep, ``estimate`` and ``execute`` read one formula summed in one
order, so a sweep equals per-target ``estimate`` calls at its
observation bit for bit; ``tests/env/test_costcache.py`` checks it
with ``==``.  The same term-table store (:meth:`NominalCostEngine.layer_terms`)
serves the remote processors' whole-network times and the layer-split
and pipelined executions' slice sums.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.common import ConfigError, UnknownKeyError
from repro.env.executor import (
    _contention_power_factor,
    busy_power_mw,
    local_finisher,
    pipelined_plan,
    remote_finisher,
)
from repro.env.result import ExecutionResult
from repro.env.target import ActionSpace, Location
from repro.hardware.processor import sum_layer_terms
from repro.interference.corunner import ConstantCoRunner
from repro.wireless.signal import ConstantSignal

__all__ = ["CacheStats", "NominalSweep", "NominalCostEngine"]

#: Bound on the exact nominal-component caches (entries are a few floats
#: each; 8k entries comfortably cover a full LOO protocol's distinct
#: (network, target, load) and (network, link, RSSI) combinations while
#: keeping worst-case growth in dynamic scenarios bounded).
_EXACT_CACHE_SIZE = 8192

#: Bound on memoized sweeps (LRU eviction beyond it).
_SWEEP_CACHE_SIZE = 512

#: Sweep-key resolution of ``cpu_util``/``mem_util`` and of the two RSSI
#: readings: fine enough that a hit's sweep is within measurement noise
#: of an exact evaluation.
_LOAD_QUANTUM = 0.02
_RSSI_QUANTUM_DBM = 0.5


def _readonly(values):
    array = np.asarray(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class CacheStats:
    """Counters of the engine's sweep memoization."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    def __post_init__(self):
        for name in ("hits", "misses", "evictions", "size", "capacity"):
            if getattr(self, name) < 0:
                raise ConfigError(f"negative cache counter {name}")

    @property
    def hit_ratio(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class NominalSweep:
    """Nominal-model results for every target at one observation.

    The arrays are index-aligned with ``space`` (the environment's
    :class:`~repro.env.target.ActionSpace`, whose key index
    :meth:`index_of` reads) and frozen read-only — a sweep may be shared
    by every consumer that hits the same cache entry, so nobody gets to
    scribble on it.
    """

    space: ActionSpace
    latency_ms: np.ndarray
    energy_mj: np.ndarray
    estimated_energy_mj: np.ndarray
    accuracy_pct: np.ndarray

    def __post_init__(self):
        count = len(self.space)
        for name in ("latency_ms", "energy_mj", "estimated_energy_mj",
                     "accuracy_pct"):
            values = getattr(self, name)
            if len(values) != count:
                raise ConfigError(
                    f"sweep column {name} has {len(values)} entries for "
                    f"{count} targets"
                )
            if count and not np.all(np.isfinite(values)):
                raise ConfigError(f"non-finite sweep column {name}")
        if count and (np.any(np.asarray(self.latency_ms) <= 0)
                      or np.any(np.asarray(self.energy_mj) <= 0)):
            raise ConfigError("non-positive nominal latency/energy")

    @property
    def targets(self):
        return self.space.targets

    def __len__(self):
        return len(self.space)

    def index_of(self, target):
        """Index of ``target`` (or a target with the same key)."""
        try:
            return self.space.index_of(target)
        except UnknownKeyError:
            raise UnknownKeyError(
                f"target {target.key} is not in this sweep"
            ) from None

    def result(self, index):
        """The scalar-``estimate``-compatible result at ``index``."""
        return ExecutionResult(
            latency_ms=float(self.latency_ms[index]),
            energy_mj=float(self.energy_mj[index]),
            estimated_energy_mj=float(self.estimated_energy_mj[index]),
            accuracy_pct=float(self.accuracy_pct[index]),
            target_key=self.targets[index].key,
        )

    def result_for(self, target):
        return self.result(self.index_of(target))

    def argbest(self, use_case, indices=None):
        """Footnote-8 ranking: index of the best feasible target.

        Minimum nominal energy among accuracy- and QoS-feasible targets;
        falls back to the minimum-energy accuracy-feasible target when no
        target meets the deadline (the oracle's nonzero-violation case).
        Returns ``None`` when nothing is accuracy-feasible.  Ties resolve
        to the first candidate, matching the scalar search's iteration
        order.  ``indices`` restricts the search to a candidate subset
        (e.g. one location's targets); the returned index is still a
        whole-sweep index.
        """
        candidate = (np.arange(len(self.targets)) if indices is None
                     else np.asarray(indices, dtype=int))
        if use_case.accuracy_target is None:
            accuracy_ok = np.ones(len(candidate), dtype=bool)
        else:
            accuracy_ok = (self.accuracy_pct[candidate]
                           >= use_case.accuracy_target)
        if not accuracy_ok.any():
            return None
        qos_ok = accuracy_ok & (self.latency_ms[candidate]
                                <= use_case.qos_ms)
        pool = qos_ok if qos_ok.any() else accuracy_ok
        best = np.argmin(np.where(pool, self.energy_mj[candidate], np.inf))
        return int(candidate[best])


@dataclass(frozen=True)
class _NetworkTable:
    """Per-target constants of one network that no observation changes.

    ``remote_ms`` (0 for local targets) is read from the engine's exact
    per-``(network, target)`` constants, the values ``execute`` uses;
    local latencies come from the per-layer term tables at sweep time.
    """

    remote_ms: np.ndarray    # remote nominal compute (0 for local)
    accuracy_pct: np.ndarray
    input_bytes: float
    output_bytes: float

    def __post_init__(self):
        for name in ("remote_ms", "accuracy_pct"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"non-finite network table {name}")
        if self.input_bytes <= 0 or self.output_bytes <= 0:
            raise ConfigError("network I/O sizes must be positive")


class NominalCostEngine:
    """Vectorized nominal model over an environment's full action space.

    Args:
        environment: the :class:`EdgeCloudEnvironment` to mirror.  The
            engine snapshots the device/remote/link topology at
            construction; a changed topology needs a new engine.  It
            holds the environment through a weak proxy: the environment
            owns the engine, so a dropped environment is freed at once,
            caches included, without waiting for the cycle collector.

    A cache hit returns the sweep computed for the *first* observation
    that landed in the key's bin, so the quanta (``_LOAD_QUANTUM``,
    ``_RSSI_QUANTUM_DBM``) bound the staleness of a hit.  Call
    :meth:`invalidate` before a sweep that must be exact at its own
    observation.
    """

    def __init__(self, environment):
        self._environment = weakref.proxy(environment)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._sweeps: "OrderedDict" = OrderedDict()
        self._network_tables: Dict[str, _NetworkTable] = {}
        self._exact_local: "OrderedDict" = OrderedDict()
        self._exact_constants: Dict[Tuple[str, str], tuple] = {}
        self._exact_links: "OrderedDict" = OrderedDict()
        self._layer_terms: Dict[Tuple, np.ndarray] = {}
        self._per_target: Dict[str, list] = {}
        self._pipelines: Dict[Tuple, Callable] = {}
        space = self._space = environment.action_space
        self._targets = space.targets
        device = environment.device
        count = len(self._targets)
        kinds = []
        groups: Dict[Tuple, tuple] = {}
        target_busy_mw = np.zeros(count)
        idle_overhead_power_mw = np.zeros(count)
        cloud_indices, connected_indices = [], []
        for index, target in enumerate(self._targets):
            if target.location is Location.LOCAL:
                proc = device.soc.processor(target.role)
                if proc.kind not in kinds:
                    kinds.append(proc.kind)
                _, _, indices, vf_indices = groups.setdefault(
                    (target.role, target.precision), (proc, target, [], []))
                indices.append(index)
                vf_indices.append(target.vf_index)
                target_busy_mw[index] = busy_power_mw(proc, target.vf_index)
                if target.role != "cpu":
                    idle_overhead_power_mw[index] = \
                        device.soc.cpu.idle_power_mw
            else:
                if target.location is Location.CLOUD:
                    cloud_indices.append(index)
                else:
                    connected_indices.append(index)
                idle_overhead_power_mw[index] = device.soc.cpu.idle_power_mw
        self._kinds = tuple(kinds)
        # One entry per local (role, precision), named by its first
        # target (the term-table key): the table's sum covers every V/F
        # step, which ``vf_indices`` then picks from.
        self._local_groups = tuple(
            (target, proc.dispatch_ms, kinds.index(proc.kind),
             np.array(indices, dtype=int), np.array(vf_indices, dtype=int))
            for proc, target, indices, vf_indices in groups.values()
        )
        self._busy_power_mw_by_target = target_busy_mw
        self._idle_overhead_power_mw = idle_overhead_power_mw
        self._platform_power_mw = device.soc.platform_idle_mw
        self._local_indices = np.flatnonzero(space.local)
        self._cloud_indices = np.array(cloud_indices, dtype=int)
        self._connected_indices = np.array(connected_indices, dtype=int)
        self.invalidate(network_tables=True)

    # ------------------------------------------------------------------
    # Per-network tables
    # ------------------------------------------------------------------

    def _table_for(self, network):
        table = self._network_tables.get(network.name)
        if table is None:
            table = self._build_network_table(network)
            self._network_tables[network.name] = table
        return table

    def _build_network_table(self, network):
        accuracy = self._environment.accuracy
        count = len(self._targets)
        remote_ms = np.zeros(count)
        accuracy_pct = np.zeros(count)
        for index, target in enumerate(self._targets):
            accuracy_pct[index] = accuracy.lookup(network.name,
                                                  target.precision)
            # Local targets' constants are not minted here: a sweep
            # reads their term tables directly, and an entry per target
            # that is never executed only costs memory.
            if target.location is not Location.LOCAL:
                remote_ms[index] = self._constants(network, target)[1]
        return _NetworkTable(
            remote_ms=_readonly(remote_ms),
            accuracy_pct=_readonly(accuracy_pct),
            input_bytes=network.input_bytes,
            output_bytes=network.output_bytes,
        )

    # ------------------------------------------------------------------
    # Exact nominal components and finishers (``execute``'s backbone)
    # ------------------------------------------------------------------
    #
    # Unlike the sweeps below — which are keyed on *discretized*
    # observations — these caches key on the **exact** observation
    # values, and their values are the per-layer sums of
    # ``repro.hardware.processor`` bit for bit.  A hit is
    # therefore bit-identical to recomputation, which is what lets
    # ``EdgeCloudEnvironment.execute``/``estimate`` read them on every
    # request.  A load-keyed entry is stored only while the co-runner is
    # constant, an RSSI-keyed one only while that link's signal is: a
    # varying process samples continuous values that practically never
    # repeat, so storing them would only grow memory.  Because the
    # entries are pure deterministic functions of the topology, they
    # deliberately survive ``reset()``/reseeds (a replayed episode would
    # recompute exactly the same values) and are only dropped when the
    # network definitions change (``invalidate(network_tables=True)``),
    # together with the per-target finishers and their last inputs.
    # That persistence is what makes fold-level environment reuse in
    # the LOO protocol profitable: every fold after the first trains
    # against a warm cache.

    def finishing_inputs(self, network, target, observation):
        """``(finish, args)`` for one request: ``finish(*args, jitters)``.

        ``finish`` is the target's eq. (1)-(4) finisher (built once, see
        :func:`~repro.env.executor.local_finisher` and
        :func:`~repro.env.executor.remote_finisher`); ``args`` are its
        nominal arguments at ``observation``, read from the exact caches.
        Each target remembers its last ``(network, observation)`` pair by
        identity — both are immutable, and a static scenario's training
        loop reuses one observation object — so a repeat skips every
        lookup.
        """
        slot = self._per_target.get(target.key)
        if slot is None:
            slot = self._per_target[target.key] = [
                self._build_finisher(target), None, None, None]
        elif slot[1] is observation and slot[2] is network:
            return slot[0], slot[3]
        constants = self._constants(network, target)
        if target.location is Location.LOCAL:
            nominal_ms, slowdown = self.local_nominal(network, target,
                                                      observation, constants)
            args = (nominal_ms, slowdown, observation, constants[0])
        else:
            env = self._environment
            tx_base_ms, rx_base_ms, rtt_base_ms, tx_power_mw = \
                self.link_nominal(network, target,
                                  env._rssi_for(target, observation))
            args = (constants[1], tx_base_ms, rx_base_ms, rtt_base_ms,
                    env.interference.transmission_slowdown(observation),
                    tx_power_mw, constants[0])
        slot[1] = observation
        slot[2] = network
        slot[3] = args
        return slot[0], args

    def _build_finisher(self, target):
        env = self._environment
        if target.location is Location.LOCAL:
            return local_finisher(env.device, self._processor(target),
                                  target)
        _, link = env._remote_setup(target)
        return remote_finisher(env.device, link, target)

    def _constants(self, network, target):
        """The load- and RSSI-free inputs of one ``(network, target)``.

        ``(accuracy_pct, proc, terms_column)`` for a local target, where
        ``terms_column`` is its V/F step's column of :meth:`layer_terms`;
        ``(accuracy_pct, remote_nominal_ms)`` for a remote one, whose
        processor runs at its top V/F step, unslowed.
        """
        key = (network.name, target.key)
        constants = self._exact_constants.get(key)
        if constants is not None:
            return constants
        accuracy_pct = self._environment.accuracy.lookup(network.name,
                                                         target.precision)
        proc = self._processor(target)
        terms = self.layer_terms(network, target)
        if target.location is Location.LOCAL:
            constants = (accuracy_pct, proc, terms[:, target.vf_index])
        else:
            constants = (accuracy_pct, float(sum_layer_terms(
                terms[:, -1], 1.0, proc.dispatch_ms)))
        self._exact_constants[key] = constants
        return constants

    def _processor(self, target):
        """The processor ``target`` runs on: the device's, or the remote
        system's behind its location."""
        env = self._environment
        if target.location is Location.LOCAL:
            return env.device.soc.processor(target.role)
        remote, _ = env._remote_setup(target)
        return remote.soc.processor(target.role)

    def layer_terms(self, network, target):
        """``Processor.layer_terms`` of ``target``'s processor, cached.

        ``terms[layer, vf]`` for ``network`` at ``target``'s precision,
        on the device's processor for a local target and on the remote
        system's for a remote one.  One table serves every V/F step of
        the pair and every slice of the layer list: ``execute``, the
        sweep, and the split and pipelined executions, whose head, tail
        and segment times are sums over row ranges of it.  A remote
        system always runs at its top V/F step, so its table keeps only
        that column (``vf`` index -1).
        """
        key = (network.name, target.location, target.role,
               target.precision)
        terms = self._layer_terms.get(key)
        if terms is None:
            terms = self._processor(target).layer_terms(network.layers,
                                                        target.precision)
            if target.location is not Location.LOCAL:
                terms = terms[:, -1:].copy()
            self._layer_terms[key] = terms
        return terms

    def pipeline(self, network, segments):
        """The resolved MOSAIC plan of ``segments`` over ``network``.

        :func:`~repro.env.executor.pipelined_plan` over this engine's
        term tables, built once per ``(network, plan)``: the returned
        ``run(load, interference, rng, noise)`` executes the plan.
        """
        key = (network.name, *[(count, target.key)
                                for count, target in segments])
        run = self._pipelines.get(key)
        if run is None:
            env = self._environment
            run = self._pipelines[key] = pipelined_plan(
                env.device, network, segments, env.accuracy,
                self.layer_terms)
        return run

    def local_nominal(self, network, target, observation, constants):
        """``(nominal_ms, slowdown)`` for one local target.

        The target's term column summed by
        :func:`~repro.hardware.processor.sum_layer_terms`, i.e.
        ``layers_latency_ms`` of the whole network bit for bit; keyed on
        the exact co-runner load.  ``constants`` is the target's
        :meth:`_constants` entry.
        """
        store = self._store_load
        if store:
            key = (network.name, target.key,
                   observation.cpu_util, observation.mem_util)
            entry = self._exact_local.get(key)
            if entry is not None:
                self._exact_local.move_to_end(key)
                return entry
        _, proc, column = constants
        # An Observation carries the co-runner load's fields (validated
        # to the same ranges), so it serves as the load directly.
        slowdown = self._environment.interference.slowdown(proc.kind,
                                                           observation)
        entry = (float(sum_layer_terms(column, slowdown, proc.dispatch_ms)),
                 slowdown)
        if store:
            self._exact_local[key] = entry
            if len(self._exact_local) > _EXACT_CACHE_SIZE:
                self._exact_local.popitem(last=False)
        return entry

    def link_nominal(self, network, target, rssi_dbm):
        """``(tx_base_ms, rx_base_ms, rtt_base_ms, tx_power_mw)``.

        The load- and noise-free transfer times and the transmit power
        of the scalar remote path, keyed on the exact RSSI (the link is
        implied by the target's location).
        """
        is_cloud = target.location is Location.CLOUD
        store = self._store_link[is_cloud]
        if store:
            key = (network.name, is_cloud, rssi_dbm)
            entry = self._exact_links.get(key)
            if entry is not None:
                self._exact_links.move_to_end(key)
                return entry
        env = self._environment
        link = env.wifi if is_cloud else env.p2p
        entry = (
            link.transfer_ms(network.input_bytes, rssi_dbm),
            link.transfer_ms(network.output_bytes, rssi_dbm),
            link.effective_rtt_ms(rssi_dbm),
            link.tx_power_mw(rssi_dbm),
        )
        if store:
            self._exact_links[key] = entry
            if len(self._exact_links) > _EXACT_CACHE_SIZE:
                self._exact_links.popitem(last=False)
        return entry

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------

    def sweep(self, network, observation):
        """All-target nominal results for one ``(network, observation)``."""
        key = self._cache_key(network.name, observation)
        cached = self._sweeps.get(key)
        if cached is not None:
            self.hits += 1
            self._sweeps.move_to_end(key)
            return cached
        self.misses += 1
        fresh = self._evaluate(network, observation)
        self._sweeps[key] = fresh
        if len(self._sweeps) > _SWEEP_CACHE_SIZE:
            self._sweeps.popitem(last=False)
            self.evictions += 1
        return fresh

    def _cache_key(self, network_name, observation):
        return (
            network_name,
            int(round(observation.cpu_util / _LOAD_QUANTUM)),
            int(round(observation.mem_util / _LOAD_QUANTUM)),
            int(round(observation.rssi_wlan_dbm / _RSSI_QUANTUM_DBM)),
            int(round(observation.rssi_p2p_dbm / _RSSI_QUANTUM_DBM)),
        )

    def _evaluate(self, network, observation):
        env = self._environment
        table = self._table_for(network)
        count = len(self._targets)
        interference = env.interference
        latency_ms = np.zeros(count)
        energy_mj = np.zeros(count)
        estimated_energy_mj = np.zeros(count)

        local = self._local_indices
        if local.size:
            slowdown_by_kind = [interference.slowdown(kind, observation)
                                for kind in self._kinds]
            for (target, dispatch_ms, kind_code, indices,
                 vf_indices) in self._local_groups:
                latency_ms[indices] = sum_layer_terms(
                    self.layer_terms(network, target),
                    slowdown_by_kind[kind_code], dispatch_ms)[vf_indices]
            local_latency_ms = latency_ms[local]
            busy_mj = (self._busy_power_mw_by_target[local]
                       * local_latency_ms / 1000.0)
            overhead_mj = (
                self._platform_power_mw * local_latency_ms / 1000.0
                + self._idle_overhead_power_mw[local]
                * local_latency_ms / 1000.0
            )
            contention = _contention_power_factor(observation)
            estimated_energy_mj[local] = busy_mj + overhead_mj
            energy_mj[local] = busy_mj * contention + overhead_mj

        tx_slow = interference.transmission_slowdown(observation)
        for indices, link, rssi_dbm in (
            (self._cloud_indices, env.wifi, observation.rssi_wlan_dbm),
            (self._connected_indices, env.p2p, observation.rssi_p2p_dbm),
        ):
            if not indices.size:
                continue
            tx_ms = link.transfer_ms(table.input_bytes, rssi_dbm) * tx_slow
            rx_ms = link.transfer_ms(table.output_bytes, rssi_dbm) * tx_slow
            rtt_ms = link.effective_rtt_ms(rssi_dbm)
            group_latency_ms = tx_ms + rtt_ms + table.remote_ms[indices] \
                + rx_ms
            wait_ms = group_latency_ms - tx_ms - rx_ms
            radio_mj = (
                link.tx_power_mw(rssi_dbm) * tx_ms / 1000.0
                + link.rx_power_mw * rx_ms / 1000.0
                + link.idle_power_mw * wait_ms / 1000.0
                + link.tail_energy_mj()
            )
            overhead_mj = (
                self._platform_power_mw * group_latency_ms / 1000.0
                + self._idle_overhead_power_mw[indices]
                * group_latency_ms / 1000.0
            )
            latency_ms[indices] = group_latency_ms
            estimated_energy_mj[indices] = radio_mj + overhead_mj
            energy_mj[indices] = radio_mj + overhead_mj

        return NominalSweep(
            space=self._space,
            latency_ms=_readonly(latency_ms),
            energy_mj=_readonly(energy_mj),
            estimated_energy_mj=_readonly(estimated_energy_mj),
            accuracy_pct=_readonly(table.accuracy_pct),
        )

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------

    def invalidate(self, network_tables=False):
        """Drop memoized sweeps (and the network tables when asked).

        The environment calls this on scenario swaps and reseeds; pass
        ``network_tables=True`` when the network *definitions* may have
        changed (a different zoo build reusing a name).  The exact
        nominal-component caches and per-target finishers (with their
        last inputs) are deterministic, so a plain reseed keeps them; only
        ``network_tables=True`` drops them too.
        """
        # Which exact caches this scenario may grow (indexed by
        # ``is_cloud`` for the links); see the section comment above.
        scenario = self._environment.scenario
        self._store_load = isinstance(scenario.corunner, ConstantCoRunner)
        self._store_link = (isinstance(scenario.p2p_signal, ConstantSignal),
                            isinstance(scenario.wlan_signal, ConstantSignal))
        self._sweeps.clear()
        if network_tables:
            self._network_tables.clear()
            self._exact_local.clear()
            self._exact_constants.clear()
            self._exact_links.clear()
            self._layer_terms.clear()
            self._per_target.clear()
            self._pipelines.clear()

    def stats(self):
        """Current :class:`CacheStats` snapshot."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._sweeps),
            capacity=_SWEEP_CACHE_SIZE,
        )

"""MOSAIC baseline ([42], PACT'19).

MOSAIC performs heterogeneity-, communication-, and constraint-aware
*model slicing*: a network is cut into contiguous layer segments, each
mapped to one of the mobile SoC's processors, so that every segment runs
on the engine that suits its layers, while hand-off costs between engines
are accounted for.

Our implementation fits per-(processor, layer-type) linear latency models
(the same regression family as NeuroSurgeon's) and prices all slicings
with up to three segments over the device's processors, one numpy pass
per segment count (:func:`best_slicing`).  True to the
original's throughput orientation, the planner minimizes predicted
*latency* (breaking ties on energy) subject to the accuracy constraint.
Each processor uses its fastest accuracy-feasible precision at the top V/F
step.  Like the original, the planner sees only profile-time behaviour —
co-runner interference, thermal throttling, and the energy cost of
pinning the top V/F step are invisible to it, which is where AutoScale's
~1.9x average advantage in Fig. 9 comes from.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.baselines.base import Scheduler
from repro.baselines.neurosurgeon import LayerLatencyModel
from repro.common import ConfigError
from repro.env.target import ExecutionTarget, Location
from repro.models.quantization import Precision

__all__ = ["MosaicScheduler", "best_slicing"]

#: Hand-off penalty between segments (driver transition), matching the
#: executor's pipelined-execution model.
_HOP_MS = 2.5

# Precision preference per role (highest accuracy first) — MOSAIC picks
# the fastest precision that still meets the accuracy constraint.
_ROLE_PRECISIONS = {
    "cpu": (Precision.INT8, Precision.FP32),
    "gpu": (Precision.FP16, Precision.FP32),
    "dsp": (Precision.INT8,),
    "npu": (Precision.INT8,),
}


def _candidates(num_layers, num_roles, max_segments):
    """Every slicing the planner considers, in its enumeration order.

    One ``(bounds, roles)`` pair per segment count: ``bounds[k]`` holds
    candidate ``k``'s segment boundaries (``0``, the cuts, then
    ``num_layers``) and ``roles[k]`` its role index per segment; no two
    consecutive segments share a role.  Cuts of two-segment plans run
    over every layer boundary; three-segment plans cut on a coarse grid
    (as the original's heuristic pruning does), the first cut outermost.
    """
    def sequences(length):
        # Nested-loop order, first segment's role outermost.
        return np.array([
            roles for roles in itertools.product(range(num_roles),
                                                 repeat=length)
            if all(a != b for a, b in zip(roles, roles[1:]))
        ], dtype=int).reshape(-1, length)

    def combine(cuts, count):
        # Cuts outermost, role sequences innermost.
        roles = sequences(count)
        bounds = np.array([(0, *cut, num_layers) for cut in cuts],
                          dtype=int).reshape(len(cuts), count + 1)
        return (np.repeat(bounds, len(roles), axis=0),
                np.tile(roles, (len(cuts), 1)))

    passes = [combine([()], 1)]
    if max_segments >= 2:
        passes.append(combine([(split,) for split in range(1, num_layers)],
                              2))
    if max_segments >= 3 and num_roles >= 2:
        grid = range(2, num_layers - 1, max(1, num_layers // 16))
        passes.append(combine([(i, j) for i in grid for j in grid if j > i],
                              3))
    return [(bounds, roles) for bounds, roles in passes if len(roles)]


def best_slicing(prefix_ms, busy_mw, base_mw, max_segments=3):
    """The predicted-best slicing, each segment count priced in one pass.

    ``prefix_ms[r, point]`` is role ``r``'s predicted latency of layers
    ``0:point`` and ``busy_mw[r]`` its busy power.  A plan's predicted
    latency is its segments' times plus a hand-off between consecutive
    segments, added in segment order; its energy is each segment's busy
    energy plus platform power over the whole latency.  Returns the
    first plan, in :func:`_candidates` order, with the least
    ``(latency, energy)`` (throughput first, ties broken on energy), as
    ``(start, stop, role_index)`` segments.
    """
    num_roles, num_points = prefix_ms.shape
    best, best_rank = None, None
    for bounds, roles in _candidates(num_points - 1, num_roles,
                                     max_segments):
        for k in range(roles.shape[1]):
            role = roles[:, k]
            ms = (prefix_ms[role, bounds[:, k + 1]]
                  - prefix_ms[role, bounds[:, k]])
            mj = busy_mw[role] * ms / 1000.0
            if k == 0:
                latency_ms, energy_mj = ms, mj
            else:
                latency_ms = latency_ms + _HOP_MS + ms
                energy_mj = energy_mj + mj
        energy_mj = energy_mj + base_mw * latency_ms / 1000.0
        fastest = np.flatnonzero(latency_ms == latency_ms.min())
        index = fastest[np.argmin(energy_mj[fastest])]
        rank = (latency_ms[index], energy_mj[index])
        if best_rank is None or rank < best_rank:
            best_rank = rank
            best = [(int(bounds[index, k]), int(bounds[index, k + 1]),
                     int(roles[index, k])) for k in range(roles.shape[1])]
    return best


class MosaicScheduler(Scheduler):
    """Heterogeneity-aware model slicing across local processors."""

    name = "mosaic"

    def __init__(self, max_segments=3):
        if max_segments < 1:
            raise ConfigError("max_segments must be >= 1")
        self.max_segments = max_segments
        self._models = {}       # (network, role) -> LayerLatencyModel
        self._precisions = {}   # (network, role) -> Precision
        self._plans = {}        # use-case name -> segments

    def train(self, environment, use_cases, rng=None):
        """Fit per-processor layer models and precompute slicing plans."""
        device = environment.device
        for use_case in use_cases:
            network = use_case.network
            for role in device.soc.roles:
                proc = device.soc.processor(role)
                precision = self._pick_precision(
                    environment, use_case, role, proc
                )
                if precision is None:
                    continue
                self._precisions[(network.name, role)] = precision
                self._models[(network.name, role)] = LayerLatencyModel().fit(
                    proc, network.layers, precision, rng=rng
                )
            self._plans[use_case.name] = self._plan(environment, use_case)

    def _pick_precision(self, environment, use_case, role, proc):
        for precision in _ROLE_PRECISIONS[role]:
            if not proc.supports(precision):
                continue
            accuracy = environment.accuracy.lookup(
                use_case.network.name, precision
            )
            if use_case.meets_accuracy(accuracy):
                return precision
        return None

    def _role_costs(self, environment, network):
        """Per-role predicted per-layer latencies and busy powers (mW)."""
        device = environment.device
        costs, powers, roles = {}, {}, []
        for role in device.soc.roles:
            model = self._models.get((network.name, role))
            if model is None:
                continue
            roles.append(role)
            costs[role] = model.predict_layers(network.layers)
            powers[role] = device.soc.processor(role).busy_power_at(-1)
        return roles, costs, powers

    def _plan(self, environment, use_case):
        """The predicted-best slicing (<= max_segments segments).

        Returns a list of ``(num_layers, ExecutionTarget)`` segments.
        """
        network = use_case.network
        device = environment.device
        roles, layer_ms, busy_mw = self._role_costs(environment, network)
        if not roles:
            raise ConfigError(f"no feasible processor for {use_case.name}")
        prefix_ms = np.array([
            np.concatenate([[0.0], np.cumsum(layer_ms[role])])
            for role in roles
        ])
        slicing = best_slicing(
            prefix_ms, np.array([busy_mw[role] for role in roles]),
            device.soc.platform_idle_mw, self.max_segments,
        )
        segments = []
        for start, stop, role_index in slicing:
            role = roles[role_index]
            proc = device.soc.processor(role)
            precision = self._precisions[(network.name, role)]
            segments.append((
                stop - start,
                ExecutionTarget(Location.LOCAL, role, precision,
                                proc.num_vf_steps - 1),
            ))
        return segments

    def select(self, environment, use_case, observation):
        """Returns the precomputed slicing plan for this use case."""
        try:
            return self._plans[use_case.name]
        except KeyError:
            raise ConfigError(
                f"{self.name} not trained for {use_case.name}"
            ) from None

    def execute(self, environment, use_case, observation=None):
        if observation is None:
            observation = environment.observe()
        segments = self.select(environment, use_case, observation)
        return environment.execute_pipelined(
            use_case.network, segments, observation
        )

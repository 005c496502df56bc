"""The paper's static baseline policies (Section V-A).

- **Edge (CPU FP32)** — always the local CPU at full clock, FP32; the
  normalization baseline of every figure.
- **Edge (Best)** — the most energy-efficient *local* processor for the
  network (chosen once per use case from nominal quiescent profiles, at
  the top V/F step — the standard governor behaviour).
- **Cloud** — always offload to the cloud (best server processor for the
  network, chosen from nominal profiles).
- **Connected Edge** — always offload to the locally connected device.
"""

from __future__ import annotations

from repro.baselines.base import Scheduler
from repro.common import SimulationError
from repro.env.observation import Observation
from repro.env.target import Location
from repro.models.quantization import Precision

__all__ = [
    "EdgeCpuFp32",
    "EdgeBest",
    "CloudOffload",
    "ConnectedEdgeOffload",
]


def _top_vf_targets(space, location):
    """The location's targets in an action space with local DVFS pinned
    to the top step."""
    chosen = {}
    for target in space.targets:
        if target.location is not location:
            continue
        slot = (target.role, target.precision)
        best = chosen.get(slot)
        if best is None or target.vf_index > best.vf_index:
            chosen[slot] = target
    return list(chosen.values())


def _quiescent_observation(observation):
    """The same radio conditions with no co-runner (profile-time view)."""
    return Observation(
        cpu_util=0.0, mem_util=0.0,
        rssi_wlan_dbm=observation.rssi_wlan_dbm,
        rssi_p2p_dbm=observation.rssi_p2p_dbm,
        now_ms=observation.now_ms,
    )


def _nominal_best(environment, use_case, observation, candidates):
    """Feasibility-first min-energy candidate under the nominal model.

    One ``estimate_all`` sweep; candidates index into it.  Returns
    ``None`` when no candidate is accuracy-feasible.
    """
    sweep = environment.estimate_all(use_case.network, observation)
    index = sweep.argbest(
        use_case, indices=[sweep.index_of(target) for target in candidates],
    )
    return None if index is None else sweep.targets[index]


class EdgeCpuFp32(Scheduler):
    """Always the local CPU, FP32, full clock.

    The target is resolved once per action space: the last space seen
    and its target are kept, so a run on one environment scans the
    space once.
    """

    name = "edge_cpu_fp32"

    def __init__(self):
        self._space = None
        self._target = None

    def select(self, environment, use_case, observation):
        space = environment.action_space
        if space is not self._space:
            self._target = self._resolve(space)
            self._space = space
        return self._target

    @staticmethod
    def _resolve(space):
        for target in _top_vf_targets(space, Location.LOCAL):
            if target.role == "cpu" and target.precision is Precision.FP32:
                return target
        raise SimulationError("environment has no local CPU FP32 target")


class EdgeBest(Scheduler):
    """The most energy-efficient local processor per network.

    Chosen from nominal quiescent profiles (no co-runner), preferring
    QoS- and accuracy-satisfying options, exactly how a vendor would
    statically map a model to the best on-device engine.  The choice is
    static per use case — it cannot react to runtime variance, which is
    what Fig. 5 punishes it for.
    """

    name = "edge_best"

    def __init__(self):
        self._choice = {}

    def select(self, environment, use_case, observation):
        key = use_case.name
        if key not in self._choice:
            self._choice[key] = self._profile(environment, use_case,
                                              observation)
        return self._choice[key]

    def _profile(self, environment, use_case, observation):
        quiet = _quiescent_observation(observation)
        best = _nominal_best(
            environment, use_case, quiet,
            _top_vf_targets(environment.action_space, Location.LOCAL))
        if best is None:
            raise SimulationError(
                f"no accuracy-feasible local target for {use_case.name}"
            )
        return best


class _RemoteOffload(Scheduler):
    """Shared logic: always offload to one remote location."""

    location = None

    def __init__(self):
        self._choice = {}

    def select(self, environment, use_case, observation):
        key = use_case.name
        if key not in self._choice:
            self._choice[key] = self._profile(environment, use_case,
                                              observation)
        return self._choice[key]

    def _profile(self, environment, use_case, observation):
        quiet = _quiescent_observation(observation)
        candidates = [target for target in environment.targets()
                      if target.location is self.location]
        best = _nominal_best(environment, use_case, quiet, candidates)
        if best is None:
            raise SimulationError(
                f"no {self.location.value} target for {use_case.name}"
            )
        return best


class CloudOffload(_RemoteOffload):
    """Always run inference in the cloud."""

    name = "cloud"
    location = Location.CLOUD


class ConnectedEdgeOffload(_RemoteOffload):
    """Always run inference on the locally connected edge device."""

    name = "connected_edge"
    location = Location.CONNECTED

"""Energy-latency Pareto analysis of the execution design space.

For a (device, network, conditions) triple, every execution target is a
point in the (latency, energy) plane.  The Pareto frontier is the set of
targets no other target beats on both axes — the menu a scheduler actually
chooses from.  This analysis answers two questions the paper's figures
imply but never plot directly:

- how much of the ~66-action space is *dominated* (wasted actions a
  smarter enumeration could prune), and
- whether the oracle's pick is, as it must be, the cheapest frontier
  point that meets the QoS constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.contracts import ensure_energy_mj, ensure_latency_ms
from repro.baselines.oracle import OptOracle
from repro.common import ConfigError
from repro.env.environment import EdgeCloudEnvironment
from repro.env.observation import Observation
from repro.env.qos import use_case_for
from repro.evalharness.reporting import format_table
from repro.hardware.devices import build_device
from repro.models.zoo import build_network

__all__ = ["ParetoPoint", "pareto_frontier", "design_space_analysis"]


@dataclass(frozen=True)
class ParetoPoint:
    """One execution target in the (latency, energy) plane."""

    target_key: str
    latency_ms: float
    energy_mj: float
    accuracy_pct: float

    def __post_init__(self):
        ensure_latency_ms(self.latency_ms, "latency_ms")
        ensure_energy_mj(self.energy_mj, "energy_mj")
        if not 0.0 <= self.accuracy_pct <= 100.0:
            raise ConfigError(
                f"accuracy outside [0, 100]: {self.accuracy_pct}"
            )

    def dominates(self, other):
        """Strictly better on one axis, at least as good on the other."""
        return (self.latency_ms <= other.latency_ms
                and self.energy_mj <= other.energy_mj
                and (self.latency_ms < other.latency_ms
                     or self.energy_mj < other.energy_mj))


def pareto_frontier(points):
    """The non-dominated subset, sorted by latency."""
    frontier: List[ParetoPoint] = []
    for candidate in points:
        if any(other.dominates(candidate) for other in points
               if other is not candidate):
            continue
        frontier.append(candidate)
    return sorted(frontier, key=lambda p: p.latency_ms)


def design_space_analysis(device_name="mi8pro",
                          network_name="inception_v1",
                          observation=None, accuracy_target=None,
                          seed=0):
    """Evaluate every target, extract the frontier, check the oracle."""
    env = EdgeCloudEnvironment(build_device(device_name), scenario="S1",
                               seed=seed)
    use_case = use_case_for(build_network(network_name),
                            accuracy_target=accuracy_target)
    observation = observation or Observation()

    points = []
    for target in env.targets():
        nominal = env.estimate(use_case.network, target, observation)
        points.append(ParetoPoint(
            target_key=target.key,
            latency_ms=nominal.latency_ms,
            energy_mj=nominal.energy_mj,
            accuracy_pct=nominal.accuracy_pct,
        ))
    frontier = pareto_frontier(points)
    frontier_keys = {p.target_key for p in frontier}

    oracle_target, oracle_nominal = OptOracle().evaluate(
        env, use_case, observation
    )
    feasible_frontier = [p for p in frontier
                         if p.latency_ms <= use_case.qos_ms
                         and use_case.meets_accuracy(p.accuracy_pct)]

    table = format_table(
        ["target", "latency (ms)", "energy (mJ)", "acc %"],
        [[p.target_key, p.latency_ms, p.energy_mj, p.accuracy_pct]
         for p in frontier],
        title=(f"Pareto frontier: {network_name} on {device_name} "
               f"({len(frontier)}/{len(points)} targets non-dominated)"),
    )
    return {
        "points": points,
        "frontier": frontier,
        "dominated_fraction": 1.0 - len(frontier) / len(points),
        "oracle_target": oracle_target.key,
        "oracle_on_frontier": oracle_target.key in frontier_keys,
        "oracle_energy_mj": oracle_nominal.energy_mj,
        "feasible_frontier": feasible_frontier,
        "table": table,
    }

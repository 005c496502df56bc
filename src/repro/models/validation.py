"""Workload validation for user-defined networks.

:func:`build_custom_network` accepts arbitrary compositions; this module
checks that a network (hand-built or custom) satisfies the invariants the
simulator and the schedulers rely on, returning human-readable issues
instead of failing deep inside an experiment.
"""

from __future__ import annotations

from typing import List

from repro.common import ConfigError
from repro.models.network import NeuralNetwork

__all__ = ["validate_network", "assert_valid_network"]

#: Tail layers should stay a sliver of the MAC budget (Section II-A says
#: they "usually have little impact"); a bigger share suggests the
#: builder was misused.
_MAX_TAIL_SHARE = 0.05


def validate_network(network):
    """Check simulator invariants; returns a list of issue strings.

    An empty list means the network is safe to schedule.  Checks:

    - every layer has positive MACs and non-negative byte sizes
      (enforced by the dataclasses, re-checked for hand-built objects);
    - at least one compute-intensive layer exists (otherwise every
      processor finishes in pure dispatch overhead and the state
      features are all zero);
    - the compute-intensive share of MACs dominates;
    - the offload payload is sane: a positive wire size, and the *late*
      activations must drop below the input payload so layer-partitioned
      execution has a non-trivial frontier;
    - MAC totals are finite and non-degenerate.
    """
    issues: List[str] = []
    if not isinstance(network, NeuralNetwork):
        return [f"expected a NeuralNetwork, got {type(network).__name__}"]

    if network.total_macs <= 0:
        issues.append("network has no compute (total MACs <= 0)")

    intensive = [l for l in network.layers if l.is_compute_intensive]
    if not intensive:
        issues.append("no CONV/FC/RC layer: nothing for the state "
                      "features or the cost model to key on")
    else:
        share = sum(l.macs for l in intensive) / network.total_macs
        if share < 1.0 - _MAX_TAIL_SHARE:
            issues.append(
                f"tail layers hold {(1 - share) * 100:.1f}% of MACs "
                f"(> {_MAX_TAIL_SHARE * 100:.0f}%); the simulator "
                "assumes CONV/FC/RC dominate"
            )

    for layer in network.layers:
        if layer.macs <= 0:
            issues.append(f"layer {layer.name} has non-positive MACs")
        if layer.output_bytes < 0 or layer.param_bytes < 0:
            issues.append(f"layer {layer.name} has negative byte sizes")

    if network.input_bytes <= 0:
        issues.append("non-positive offload payload (input_bytes)")
    elif network.layers:
        last_activation = network.layers[-1].output_bytes
        if last_activation > network.input_bytes:
            issues.append(
                "final activation exceeds the input payload: a late "
                "split would cost more than offloading the whole model, "
                "which starves the partitioning baselines"
            )

    counts = network.composition
    if counts.conv and counts.rc:
        issues.append(
            "mixed CONV backbone and RC stack: the zoo's cost shaping "
            "(and Table III) keeps these separate"
        )
    return issues


def assert_valid_network(network):
    """Raise ``ValueError`` with all issues when validation fails."""
    issues = validate_network(network)
    if issues:
        raise ConfigError(
            f"{getattr(network, 'name', network)!r} failed validation:\n"
            + "\n".join(f"- {issue}" for issue in issues)
        )
    return network

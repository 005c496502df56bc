"""Per-layer profiling: where a network's time and energy actually go.

The paper's Fig. 3 aggregates per-layer latency by type; this module keeps
the full per-layer resolution.  Profiles drive three things: the Fig. 3
reproduction, bottleneck reports for the examples, and the per-layer cost
tables the partitioning baselines (NeuroSurgeon, MOSAIC) fit their
regressions against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.contracts import ensure_duration_ms, ensure_energy_mj
from repro.common import ConfigError
from repro.models.layers import LayerType

__all__ = ["LayerProfile", "NetworkProfile", "profile_network"]


@dataclass(frozen=True)
class LayerProfile:
    """One layer's cost on one processor at one operating point."""

    name: str
    kind: LayerType
    macs: float
    latency_ms: float
    energy_mj: float
    cumulative_ms: float

    def __post_init__(self):
        if self.macs < 0:
            raise ConfigError(f"negative MAC count {self.macs}")
        ensure_duration_ms(self.latency_ms, "latency_ms")
        ensure_energy_mj(self.energy_mj, "energy_mj")
        ensure_duration_ms(self.cumulative_ms, "cumulative_ms")
        if self.cumulative_ms + 1e-9 < self.latency_ms:
            raise ConfigError(
                f"cumulative time {self.cumulative_ms} ms below the "
                f"layer's own {self.latency_ms} ms"
            )

    @property
    def is_compute_intensive(self):
        return self.kind.is_compute_intensive


@dataclass(frozen=True)
class NetworkProfile:
    """A full network's per-layer profile on one processor."""

    network_name: str
    processor_name: str
    precision: str
    layers: tuple

    @property
    def total_latency_ms(self):
        return sum(layer.latency_ms for layer in self.layers)

    @property
    def total_energy_mj(self):
        return sum(layer.energy_mj for layer in self.layers)

    def by_kind(self):
        """Latency aggregated per layer type (the Fig. 3 view)."""
        sums: Dict[LayerType, float] = {}
        for layer in self.layers:
            sums[layer.kind] = sums.get(layer.kind, 0.0) + layer.latency_ms
        return sums

    def bottlenecks(self, top=5):
        """The layers that cost the most latency."""
        return sorted(self.layers, key=lambda l: -l.latency_ms)[:top]

    def dominant_kind(self):
        """The layer type consuming the largest latency share."""
        sums = self.by_kind()
        return max(sums, key=sums.get)

    def table(self, top=None):
        """Rendered per-layer breakdown (optionally only the top-N)."""
        # Imported lazily: the reporting helper lives in the evaluation
        # package, which imports the models package at module scope.
        from repro.evalharness.reporting import format_table

        layers = self.bottlenecks(top) if top else self.layers
        return format_table(
            ["layer", "kind", "MACs (M)", "latency (ms)", "energy (mJ)"],
            [[l.name, l.kind.value, l.macs / 1e6, l.latency_ms,
              l.energy_mj] for l in layers],
            title=(f"{self.network_name} on {self.processor_name} "
                   f"({self.precision}): {self.total_latency_ms:.1f} ms, "
                   f"{self.total_energy_mj:.1f} mJ"),
        )


def profile_network(processor, network, precision, vf_index=-1,
                    platform_idle_mw=0.0):
    """Profile every layer of ``network`` on ``processor``.

    Energy uses the processor's busy power at the chosen V/F step (the
    eq. 1-3 busy component), with ``platform_idle_mw`` added so system-
    level profiles match what the environment charges.
    """
    if not processor.supports(precision):
        raise ConfigError(
            f"{processor.name} does not support {precision}"
        )
    power_mw = processor.busy_power_at(vf_index) + platform_idle_mw
    profiles: List[LayerProfile] = []
    cumulative_ms = 0.0
    latencies = processor.layer_latencies_ms(network.layers, precision,
                                             vf_index)
    for layer, latency_ms in zip(network.layers, latencies.tolist()):
        cumulative_ms += latency_ms
        profiles.append(LayerProfile(
            name=layer.name,
            kind=layer.kind,
            macs=layer.macs,
            latency_ms=latency_ms,
            energy_mj=power_mw * latency_ms / 1000.0,
            cumulative_ms=cumulative_ms,
        ))
    return NetworkProfile(
        network_name=network.name,
        processor_name=processor.name,
        precision=precision.label,
        layers=tuple(profiles),
    )

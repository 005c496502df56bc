"""AutoScale's state space (Table I).

Eight discrete features: four describing the network (CONV/FC/RC layer
counts and total MACs) and four describing runtime variance (co-runner CPU
and memory usage, WLAN RSSI, P2P RSSI).  With the paper's bins the space
has 4 * 2 * 2 * 3 * 4 * 4 * 2 * 2 = 3,072 states — the "3,072 states" of
the Opt design-space enumeration in Section V-A.

The bin boundaries were derived by the authors with DBSCAN over profiling
data; ``repro.core.discretize`` reimplements that derivation, and
:func:`table_i_state_space` hard-codes the resulting Table-I bins.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Tuple

from repro.common import ConfigError, UnknownKeyError

__all__ = ["StateFeature", "StateSpace", "table_i_state_space"]


@dataclass(frozen=True)
class StateFeature:
    """One discretized state feature.

    Attributes:
        name: feature id, e.g. ``"s_conv"``.
        edges: ascending bin boundaries.  A raw value ``v`` falls in bin
            ``bisect_right(edges, v)`` (boundaries belong to the upper
            bin, matching Table I's ``<`` / ``>=`` conventions).
        labels: one label per bin (``len(edges) + 1``, plus one more when
            ``zero_bin``).
        zero_bin: give exact-zero values a dedicated first bin (Table I's
            "none (0%)" bins).
        edge_belongs_low: boundary values fall in the *lower* bin instead
            — Table I's RSSI features are "regular (> -80), weak
            (<= -80)", so -80 itself is weak.
        locate: derived, not passed — ``bisect_left`` when
            ``edge_belongs_low`` else ``bisect_right``; the one bin rule
            :meth:`discretize` and ``StateSpace.encode`` share.
    """

    name: str
    edges: Tuple[float, ...]
    labels: Tuple[str, ...]
    zero_bin: bool = False
    edge_belongs_low: bool = False
    locate: Callable[..., int] = field(init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        edges = tuple(self.edges)
        if list(edges) != sorted(edges):
            raise ConfigError(f"{self.name}: edges must be ascending")
        if len(set(edges)) != len(edges):
            raise ConfigError(f"{self.name}: duplicate edges")
        expected = len(edges) + 1 + (1 if self.zero_bin else 0)
        if len(self.labels) != expected:
            raise ConfigError(
                f"{self.name}: expected {expected} labels, "
                f"got {len(self.labels)}"
            )
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "locate",
                           bisect.bisect_left if self.edge_belongs_low
                           else bisect.bisect_right)

    @property
    def num_bins(self):
        return len(self.labels)

    def discretize(self, value):
        """Map a raw value to its bin index."""
        if self.zero_bin:
            if value == 0:
                return 0
            return 1 + self.locate(self.edges, value)
        return self.locate(self.edges, value)

    def label_of(self, value):
        """The human-readable bin label for a raw value."""
        return self.labels[self.discretize(value)]


class StateSpace:
    """An ordered collection of state features with mixed-radix indexing."""

    def __init__(self, features):
        self.features = tuple(features)
        if not self.features:
            raise ConfigError("state space needs at least one feature")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate feature names")
        self._radices = tuple(f.num_bins for f in self.features)
        # encode's per-feature constants: (locator, edges, zero_bin, radix).
        self._encode_plan = tuple(
            (f.locate, f.edges, f.zero_bin, f.num_bins)
            for f in self.features
        )

    @property
    def size(self):
        """Total number of discrete states."""
        total = 1
        for radix in self._radices:
            total *= radix
        return total

    def feature(self, name):
        for feature in self.features:
            if feature.name == name:
                return feature
        raise UnknownKeyError(f"no feature named {name!r}")

    def discretize(self, raw_values):
        """Per-feature bin indices for an ordered raw-value sequence."""
        if len(raw_values) != len(self.features):
            raise ConfigError(
                f"expected {len(self.features)} values, got {len(raw_values)}"
            )
        return tuple(
            feature.discretize(value)
            for feature, value in zip(self.features, raw_values)
        )

    def index_of(self, bins):
        """Mixed-radix flattening of per-feature bins to one state index."""
        if len(bins) != len(self.features):
            raise ConfigError(
                f"expected {len(self.features)} bins, got {len(bins)}"
            )
        index = 0
        for bin_index, radix in zip(bins, self._radices):
            if not 0 <= bin_index < radix:
                raise ConfigError(f"bin {bin_index} outside [0, {radix})")
            index = index * radix + bin_index
        return index

    def encode(self, network, observation):
        """State index for a (network, observation) pair.

        Raw values follow the Table-I feature order: S_CONV, S_FC, S_RC,
        S_MAC, S_Co_CPU, S_Co_MEM, S_RSSI_W, S_RSSI_P.  Utilizations are
        converted to percent, MACs to millions.  The four network
        features are the network's cached Table-III statistics, so no
        layer list is walked here.

        Equal to ``index_of(discretize(raw))``, with binning and the
        mixed-radix flattening fused into one loop over the precomputed
        per-feature plan.
        """
        raw = (
            network.num_conv,
            network.num_fc,
            network.num_rc,
            network.mega_macs,
            observation.cpu_util * 100.0,
            observation.mem_util * 100.0,
            observation.rssi_wlan_dbm,
            observation.rssi_p2p_dbm,
        )
        plan = self._encode_plan
        if len(plan) != len(raw):
            raise ConfigError(
                f"expected {len(plan)} values, got {len(raw)}"
            )
        index = 0
        for (locate, edges, zero_bin, radix), value in zip(plan, raw):
            if zero_bin:
                bin_index = 0 if value == 0 else 1 + locate(edges, value)
            else:
                bin_index = locate(edges, value)
            if bin_index >= radix:
                raise ConfigError(f"bin {bin_index} outside [0, {radix})")
            index = index * radix + bin_index
        return index

    def describe(self, network, observation):
        """Human-readable per-feature labels (for logging/debugging)."""
        raw = (
            network.num_conv, network.num_fc, network.num_rc,
            network.mega_macs, observation.cpu_util * 100.0,
            observation.mem_util * 100.0, observation.rssi_wlan_dbm,
            observation.rssi_p2p_dbm,
        )
        return {
            feature.name: feature.label_of(value)
            for feature, value in zip(self.features, raw)
        }

    def without(self, name):
        """A copy of the space lacking one feature (ablation studies).

        The returned space encodes only the remaining features; the
        Table-I raw ordering no longer applies, so use it through the
        ablation helpers in ``repro.evalharness``.
        """
        remaining = [f for f in self.features if f.name != name]
        if len(remaining) == len(self.features):
            raise UnknownKeyError(f"no feature named {name!r}")
        return StateSpace(remaining)


def table_i_state_space():
    """The exact Table-I feature bins (3,072 states)."""
    return StateSpace([
        StateFeature(
            "s_conv", edges=(30, 50, 90),
            labels=("small", "medium", "large", "larger"),
        ),
        StateFeature("s_fc", edges=(10,), labels=("small", "large")),
        StateFeature("s_rc", edges=(10,), labels=("small", "large")),
        StateFeature(
            "s_mac", edges=(1000.0, 2000.0),
            labels=("small", "medium", "large"),
        ),
        StateFeature(
            "s_co_cpu", edges=(25.0, 75.0),
            labels=("none", "small", "medium", "large"), zero_bin=True,
        ),
        StateFeature(
            "s_co_mem", edges=(25.0, 75.0),
            labels=("none", "small", "medium", "large"), zero_bin=True,
        ),
        StateFeature(
            "s_rssi_w", edges=(-80.0,), labels=("weak", "regular"),
            edge_belongs_low=True,
        ),
        StateFeature(
            "s_rssi_p", edges=(-80.0,), labels=("weak", "regular"),
            edge_belongs_low=True,
        ),
    ])

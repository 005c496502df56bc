"""Neural-network workload descriptor.

A :class:`NeuralNetwork` is an ordered layer list plus the I/O sizes that
matter for offloading: the input tensor that must be shipped to a remote
execution target and the (small) result that comes back.  The class exposes
the Table-III summary statistics AutoScale's state space consumes — the
number of CONV/FC/RC layers and the total MAC count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.common import ConfigError
from repro.models.layers import Layer, LayerType

__all__ = ["NeuralNetwork", "LayerComposition", "Task"]


class Task:
    """Task labels used by the benchmark table (Table III)."""

    IMAGE_CLASSIFICATION = "image_classification"
    OBJECT_DETECTION = "object_detection"
    TRANSLATION = "translation"

    ALL = (IMAGE_CLASSIFICATION, OBJECT_DETECTION, TRANSLATION)


@dataclass(frozen=True)
class LayerComposition:
    """Counts of the compute-intensive layer types (Table III columns)."""

    conv: int
    fc: int
    rc: int

    def as_tuple(self):
        return (self.conv, self.fc, self.rc)


@dataclass(frozen=True)
class NeuralNetwork:
    """An inference workload.

    Attributes:
        name: canonical name (e.g. ``"mobilenet_v3"``).
        task: one of :class:`Task`'s labels.
        layers: ordered layer sequence.
        input_bytes: FP32 input tensor size — transmitted when offloading
            whole-model inference to the cloud or a connected device.
        output_bytes: result size received back from a remote target.
    """

    name: str
    task: str
    layers: Tuple[Layer, ...]
    input_bytes: float
    output_bytes: float

    def __post_init__(self):
        if self.task not in Task.ALL:
            raise ConfigError(f"{self.name}: unknown task {self.task!r}")
        if not self.layers:
            raise ConfigError(f"{self.name}: a network needs layers")
        if self.input_bytes <= 0 or self.output_bytes <= 0:
            raise ConfigError(f"{self.name}: I/O sizes must be positive")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ConfigError(f"{self.name}: duplicate layer names")
        object.__setattr__(self, "layers", tuple(self.layers))

    # ------------------------------------------------------------------
    # Table-III style summary statistics (AutoScale state features)
    # ------------------------------------------------------------------
    # The layer list is immutable, so each statistic is one layer walk
    # per network: ``cached_property`` stores it in the instance dict
    # (the dataclass is frozen but not slotted), leaving equality,
    # hashing and ``dataclasses.replace`` to the fields alone.

    def count(self, kind):
        """Number of layers of the given :class:`LayerType`."""
        return sum(1 for layer in self.layers if layer.kind is kind)

    @cached_property
    def num_conv(self):
        return self.count(LayerType.CONV)

    @cached_property
    def num_fc(self):
        return self.count(LayerType.FC)

    @cached_property
    def num_rc(self):
        return self.count(LayerType.RC)

    @property
    def composition(self):
        """The (CONV, FC, RC) counts as a :class:`LayerComposition`."""
        return LayerComposition(self.num_conv, self.num_fc, self.num_rc)

    @cached_property
    def total_macs(self):
        """Total multiply-accumulate operations for one inference."""
        return sum(layer.macs for layer in self.layers)

    @cached_property
    def mega_macs(self):
        """Total MACs in millions — the unit of the S_MAC state feature."""
        return self.total_macs / 1e6

    @property
    def param_bytes(self):
        """Total FP32 model size in bytes."""
        return sum(layer.param_bytes for layer in self.layers)

    # ------------------------------------------------------------------
    # Partitioned execution support (NeuroSurgeon / MOSAIC baselines)
    # ------------------------------------------------------------------

    def split(self, point):
        """Split the layer list at ``point``.

        Returns ``(head, tail)`` where ``head`` is ``layers[:point]`` and
        ``tail`` is ``layers[point:]``.  ``point == 0`` means "run
        everything remotely"; ``point == len(layers)`` means "run
        everything locally".
        """
        if not 0 <= point <= len(self.layers):
            raise ConfigError(
                f"split point {point} outside [0, {len(self.layers)}]"
            )
        return self.layers[:point], self.layers[point:]

    def transfer_bytes_at(self, point):
        """Bytes shipped across the wire for a split at ``point``.

        A split at 0 transmits the input tensor; a split at the end
        transmits nothing (everything ran locally); otherwise the output
        activation of the last local layer crosses the link.
        """
        if point == len(self.layers):
            return 0.0
        if point == 0:
            return self.input_bytes
        return self.layers[point - 1].output_bytes

    def describe(self):
        """One-line human-readable summary."""
        comp = self.composition
        return (
            f"{self.name} ({self.task}): {len(self.layers)} layers, "
            f"CONV={comp.conv} FC={comp.fc} RC={comp.rc}, "
            f"{self.mega_macs:.0f}M MACs"
        )

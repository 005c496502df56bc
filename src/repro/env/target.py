"""Execution targets — the things AutoScale's actions select.

An :class:`ExecutionTarget` names *where* an inference runs (this device,
the cloud, or the locally connected edge device), on *which* processor
role, at *what* precision, and — for local CPU/GPU targets — at which DVFS
operating point.  Section V-C enumerates the resulting action set for the
Mi8Pro: CPU {FP32, INT8} x 23 V/F steps + GPU {FP32, FP16} x 7 V/F steps +
DSP + cloud CPU/GPU (FP32) + connected CPU/GPU (FP32) + connected DSP
= 66 actions, which this module reproduces exactly.

An :class:`ActionSpace` indexes a stable tuple of targets so the
Q-table, the cost model's sweeps and every action mask address actions
by the same integer column.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.common import ConfigError, UnknownKeyError
from repro.models.quantization import Precision

__all__ = ["Location", "ExecutionTarget", "enumerate_targets",
           "ActionSpace", "combine_masks"]


class Location(enum.Enum):
    """Where the inference executes."""

    LOCAL = "local"
    CLOUD = "cloud"
    CONNECTED = "connected"

    @property
    def is_remote(self):
        return self is not Location.LOCAL


@dataclass(frozen=True)
class ExecutionTarget:
    """One point in the execution-scaling design space.

    ``vf_index`` indexes into the local processor's V/F table and is only
    meaningful for LOCAL targets (remote devices run at their top clock,
    index -1, since the phone cannot control them).
    """

    location: Location
    role: str
    precision: Precision
    vf_index: int = -1

    def __post_init__(self):
        if self.role not in ("cpu", "gpu", "dsp", "npu"):
            raise ConfigError(f"unknown processor role {self.role!r}")
        if self.location.is_remote and self.vf_index != -1:
            raise ConfigError(
                "remote targets cannot carry a DVFS setting "
                f"(got vf_index={self.vf_index})"
            )

    @cached_property
    def key(self):
        """Stable string id, e.g. ``"local/gpu/fp16/vf3"``.

        Cached: targets are immutable and every served request stamps
        this string onto its result and trace row.
        """
        if self.location is Location.LOCAL:
            return (f"{self.location.value}/{self.role}/"
                    f"{self.precision.label}/vf{self.vf_index}")
        return f"{self.location.value}/{self.role}/{self.precision.label}"

    @property
    def is_remote(self):
        return self.location.is_remote

    def __str__(self):
        return self.key


# Precisions offered per role, per Section V-C: mobile CPUs add INT8,
# mobile GPUs add FP16, DSPs are INT8-only, and all remote targets run
# FP32 (except remote DSPs, which remain INT8 by hardware).
_LOCAL_PRECISIONS = {
    "cpu": (Precision.FP32, Precision.INT8),
    "gpu": (Precision.FP32, Precision.FP16),
    "dsp": (Precision.INT8,),
    "npu": (Precision.INT8,),
}
_REMOTE_PRECISIONS = {
    "cpu": (Precision.FP32,),
    "gpu": (Precision.FP32,),
    "dsp": (Precision.INT8,),
    "npu": (Precision.INT8,),  # a cloud TPU serving quantized models
}


def enumerate_targets(device, cloud=None, connected=None,
                      with_dvfs=True, with_quantization=True):
    """Enumerate the execution-scaling action space for ``device``.

    Args:
        device: the phone running the intelligent service.
        cloud: the cloud server device, or ``None`` if unreachable.
        connected: the locally connected edge device, or ``None``.
        with_dvfs: include every local V/F step as an augmented action
            (otherwise only the top step), per Section V-C.
        with_quantization: include reduced-precision variants (otherwise
            FP32-capable roles offer FP32 only).

    Returns a tuple of :class:`ExecutionTarget` in a stable order.
    """
    targets = []
    for role in device.soc.roles:
        proc = device.soc.processor(role)
        precisions = [
            p for p in _LOCAL_PRECISIONS[role] if proc.supports(p)
        ]
        if with_quantization is False:
            kept = [p for p in precisions if p is Precision.FP32]
            precisions = kept or precisions  # DSP stays INT8-only
        vf_indices = (
            range(proc.num_vf_steps) if with_dvfs and proc.supports_dvfs
            else (proc.num_vf_steps - 1,)
        )
        for precision in precisions:
            for vf_index in vf_indices:
                targets.append(ExecutionTarget(
                    Location.LOCAL, role, precision, vf_index
                ))
    for location, remote in ((Location.CLOUD, cloud),
                             (Location.CONNECTED, connected)):
        if remote is None:
            continue
        for role in remote.soc.roles:
            proc = remote.soc.processor(role)
            for precision in _REMOTE_PRECISIONS[role]:
                if proc.supports(precision):
                    targets.append(ExecutionTarget(location, role, precision))
    return tuple(targets)


def _column(flags):
    column = np.fromiter(flags, dtype=bool)
    column.flags.writeable = False
    return column


class ActionSpace:
    """An indexed, immutable set of execution targets.

    ``keys`` holds the targets' keys in index order.  Besides the
    targets, a space holds one read-only boolean column per
    target class, index-aligned with ``targets``: ``local`` (runs on the
    phone), ``int8`` and ``reduced`` (any precision below FP32).  They
    are built once here, and every action mask over the space is read
    from them.
    """

    def __init__(self, targets):
        self.targets = tuple(targets)
        if not self.targets:
            raise ConfigError("action space cannot be empty")
        self.keys = tuple(target.key for target in self.targets)
        self._index = {key: i for i, key in enumerate(self.keys)}
        if len(self._index) != len(self.targets):
            raise ConfigError("duplicate targets in action space")
        self.local = _column(not target.is_remote
                             for target in self.targets)
        self.int8 = _column(target.precision is Precision.INT8
                            for target in self.targets)
        self.reduced = _column(target.precision is not Precision.FP32
                               for target in self.targets)

    @classmethod
    def from_environment(cls, environment, with_dvfs=True,
                         with_quantization=True):
        """The action space of an :class:`EdgeCloudEnvironment`.

        With both augmentations on (the paper's configuration, where
        the Mi8Pro yields the paper's 66 actions) this is the
        environment's own ``action_space``; switching one off builds a
        smaller space.
        """
        if with_dvfs and with_quantization:
            return environment.action_space
        return cls(enumerate_targets(
            environment.device, environment.cloud, environment.connected,
            with_dvfs=with_dvfs, with_quantization=with_quantization,
        ))

    def __len__(self):
        return len(self.targets)

    def __iter__(self):
        return iter(self.targets)

    def target(self, index):
        """The :class:`ExecutionTarget` at an action index."""
        return self.targets[index]

    def index_of(self, target):
        """The action index of a target (by key)."""
        try:
            return self._index[target.key]
        except KeyError:
            raise UnknownKeyError(f"{target.key} not in this action space") from None

    def __contains__(self, target):
        return getattr(target, "key", None) in self._index


def combine_masks(first, second):
    """Intersect two optional boolean action masks (``None`` = all).

    When one side is ``None`` the other is returned as it is: no reader
    writes to a mask, and the space's columns are read-only anyway.
    """
    if first is None:
        return second
    if second is None:
        return first
    return first & second

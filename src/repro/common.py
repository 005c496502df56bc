"""Shared primitives used across the AutoScale reproduction.

Unit conventions (documented in DESIGN.md and enforced by reprolint —
see ``repro.analysis`` and ``docs/static_analysis.md``):

- latency: milliseconds (ms)
- energy: millijoules (mJ)
- power: milliwatts (mW)
- data size: bytes
- data rate: megabits per second (Mbit/s)
- signal strength: dBm (negative; closer to zero is stronger)
- frequency: MHz
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, Union

import numpy as np

__all__ = [
    "ReproError",
    "ConfigError",
    "SimulationError",
    "UnknownKeyError",
    "Stopwatch",
    "slot_init",
    "make_rng",
    "mj_to_joules",
    "ms_to_seconds",
    "mbits_to_bytes",
    "bytes_to_mbits",
    "ppw_from_energy",
    "clamp",
]

_INF = float("inf")

#: Everything accepted as a seed by :func:`make_rng`.
SeedLike = Union[None, int, np.random.Generator]


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """Raised when a component is constructed with invalid parameters."""


class SimulationError(ReproError):
    """Raised when a simulation request cannot be executed."""


class UnknownKeyError(ConfigError, KeyError):
    """A lookup by name/key missed (unknown device, scenario, network...).

    Subclasses both :class:`ConfigError` — so ``except ReproError`` still
    catches every library failure — and :class:`KeyError`, preserving the
    builtin contract for callers doing ``except KeyError`` around lookups.
    """

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument, which would wrap our
        # messages in quotes; report them like every other ReproError.
        return Exception.__str__(self)


class _Factory:
    """The default of a field built by its ``default_factory``."""

    __slots__ = ()

    def __repr__(self):
        return "<factory>"


_FACTORY = _Factory()


def slot_init(cls):
    """Give a frozen, slotted dataclass a cheaper ``__init__``.

    The dataclass-generated ``__init__`` of a frozen class stores each
    field with one ``object.__setattr__(self, name, value)`` call.  The
    one built here stores each field through the class's slot member
    descriptor (``cls.<field>.__set__``), then calls the class's
    ``__post_init__`` when it has one.  Its signature (field order,
    defaults, default factories) is the dataclass's; freezing, slots,
    ``eq``/``repr``/``hash``, pickling, copying and
    ``dataclasses.replace`` are the dataclass's too.  Apply it above
    ``@dataclass(frozen=True, slots=True)``.
    """
    params = getattr(cls, "__dataclass_params__", None)
    if (params is None or not params.frozen
            or "__slots__" not in cls.__dict__):
        raise ConfigError(
            f"{cls.__name__} is not a frozen, slotted dataclass")
    fields = dataclasses.fields(cls)
    if len(fields) != len(cls.__dataclass_fields__) or any(
            not field.init or field.kw_only for field in fields):
        raise ConfigError(
            f"{cls.__name__}: slot_init supports plain positional fields "
            "only (no InitVar, ClassVar, init=False or kw_only)")
    namespace: Dict[str, Any] = {"_FACTORY": _FACTORY}
    signature, body = [], []
    for field in fields:
        name = field.name
        value = name
        if field.default is not dataclasses.MISSING:
            namespace[f"_default_{name}"] = field.default
            signature.append(f"{name}=_default_{name}")
        elif field.default_factory is not dataclasses.MISSING:
            namespace[f"_factory_{name}"] = field.default_factory
            signature.append(f"{name}=_FACTORY")
            value = f"_factory_{name}() if {name} is _FACTORY else {name}"
        else:
            signature.append(name)
        namespace[f"_set_{name}"] = cls.__dict__[name].__set__
        body.append(f"    _set_{name}(self, {value})\n")
    post_init = getattr(cls, "__post_init__", None)
    if post_init is not None:
        namespace["_post_init"] = post_init
        body.append("    _post_init(self)\n")
    exec("def __init__(self, " + ", ".join(signature) + "):\n"
         + ("".join(body) or "    pass\n"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Accepts ``None`` (non-deterministic), an int seed, or an existing
    generator (returned unchanged).  Every stochastic component in the
    library takes its randomness through this funnel so experiments are
    reproducible from a single seed.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def mj_to_joules(energy_mj: float) -> float:
    """Convert millijoules to joules."""
    return energy_mj / 1000.0


def ms_to_seconds(latency_ms: float) -> float:
    """Convert milliseconds to seconds."""
    return latency_ms / 1000.0


def mbits_to_bytes(mbits: float) -> float:
    """Convert megabits to bytes (1 Mbit = 125,000 bytes)."""
    return mbits * 125_000.0


def bytes_to_mbits(num_bytes: float) -> float:
    """Convert bytes to megabits."""
    return num_bytes / 125_000.0


def ppw_from_energy(energy_mj: float) -> float:
    """Performance-per-watt proxy used throughout the paper's figures.

    For a single inference, throughput/power reduces to the reciprocal of
    the energy per inference.  We report inferences per joule; the figures
    always normalize PPW to a named baseline so the absolute scale cancels.
    """
    if energy_mj <= 0:
        raise ConfigError(f"energy must be positive, got {energy_mj}")
    return 1000.0 / energy_mj


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the closed interval [low, high]."""
    if low > high:
        raise ConfigError(f"empty interval [{low}, {high}]")
    return max(low, min(high, value))


@dataclass
class Stopwatch:
    """Accumulates simulated wall-clock time in milliseconds.

    The environment uses one of these to stamp each inference with a
    virtual timestamp, which drives time-varying scenario processes
    (signal-strength random walks, co-runner phase changes).
    """

    now_ms: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.now_ms) or self.now_ms < 0:
            raise ConfigError(
                f"stopwatch cannot start at {self.now_ms} ms"
            )

    def advance(self, delta_ms: float) -> float:
        """Move the clock forward; negative deltas are rejected."""
        if not 0.0 <= delta_ms < _INF:  # NaN fails it too
            raise ConfigError(f"cannot advance clock by {delta_ms} ms")
        self.now_ms += delta_ms
        return self.now_ms

    def reset(self) -> None:
        """Rewind the clock to zero (used between experiment episodes)."""
        self.now_ms = 0.0

"""Runtime invariant contracts for physical quantities.

The static rules in :mod:`repro.analysis.rules` keep *names* honest; this
module keeps *values* honest at the same boundaries: power is
non-negative, latency is positive, utilization lives in [0, 1], RSSI
stays inside the simulator's physical window, and Q-values stay finite.

The ``ensure_*`` validators always check when called directly — they are
the building blocks for ``__post_init__`` methods.  The :func:`checked`
decorator is the *optional* layer for hot paths: it validates arguments
and return values only while :func:`contracts_enabled` is true, which is
the default under pytest (so every test run exercises the contracts) and
opt-in elsewhere via ``REPRO_CONTRACTS=1``.
"""

from __future__ import annotations

import functools
import inspect
import math
import os

from repro.common import ConfigError, SimulationError

__all__ = [
    "RSSI_FLOOR_DBM",
    "RSSI_CEIL_DBM",
    "contracts_enabled",
    "is_finite",
    "ensure_finite",
    "ensure_power_mw",
    "ensure_latency_ms",
    "ensure_duration_ms",
    "ensure_energy_mj",
    "ensure_utilization",
    "ensure_rssi_dbm",
    "ensure_q_value",
    "checked",
]

#: The simulator's physical RSSI window (matches ``wireless.signal``).
#: The paper's experiments sweep roughly -55 to -90 dBm; the floor/ceil
#: below are the hard limits the signal processes clamp to.
RSSI_FLOOR_DBM = -100.0
RSSI_CEIL_DBM = -30.0

_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"0", "false", "no", "off"})


def contracts_enabled():
    """Whether :func:`checked` validates on this call.

    ``REPRO_CONTRACTS=1`` forces contracts on, ``REPRO_CONTRACTS=0``
    forces them off; with the variable unset they default to *on under
    pytest* and off in production runs, keeping the per-inference hot
    path free of validation overhead.
    """
    flag = os.environ.get("REPRO_CONTRACTS", "").strip().lower()
    if flag in _TRUTHY:
        return True
    if flag in _FALSY:
        return False
    return "PYTEST_CURRENT_TEST" in os.environ


def _reject(error_cls, name, value, requirement):
    raise error_cls(f"contract violation: {name} must be {requirement}, "
                    f"got {value!r}")


def is_finite(value):
    """Whether ``value`` is a finite number (False for non-numbers)."""
    try:
        return math.isfinite(value)
    except TypeError:
        return False


def ensure_finite(value, name="value", error_cls=ConfigError):
    """Reject NaN/inf (and non-numbers)."""
    if not is_finite(value):
        _reject(error_cls, name, value, "a finite number")
    return value


def ensure_power_mw(value, name="power_mw"):
    """Power draw: finite and non-negative (idle rails can be 0 mW)."""
    ensure_finite(value, name)
    if value < 0:
        _reject(ConfigError, name, value, "non-negative (mW)")
    return value


def ensure_latency_ms(value, name="latency_ms"):
    """An end-to-end latency: finite and strictly positive."""
    ensure_finite(value, name)
    if value <= 0:
        _reject(ConfigError, name, value, "positive (ms)")
    return value


def ensure_duration_ms(value, name="duration_ms"):
    """A phase duration: finite and non-negative (phases may be empty)."""
    ensure_finite(value, name)
    if value < 0:
        _reject(ConfigError, name, value, "non-negative (ms)")
    return value


def ensure_energy_mj(value, name="energy_mj", minimum_mj=0.0):
    """An energy: finite and at least ``minimum_mj``."""
    ensure_finite(value, name)
    if value < minimum_mj:
        _reject(ConfigError, name, value, f">= {minimum_mj} (mJ)")
    return value


def ensure_utilization(value, name="utilization"):
    """A load fraction: finite and inside [0, 1]."""
    ensure_finite(value, name)
    if not 0.0 <= value <= 1.0:
        _reject(ConfigError, name, value, "within [0, 1]")
    return value


def ensure_rssi_dbm(value, name="rssi_dbm", floor_dbm=RSSI_FLOOR_DBM,
                    ceil_dbm=RSSI_CEIL_DBM):
    """A signal strength: finite and inside the simulator's dBm window."""
    ensure_finite(value, name)
    if not floor_dbm <= value <= ceil_dbm:
        _reject(ConfigError, name, value,
                f"within [{floor_dbm}, {ceil_dbm}] dBm")
    return value


def ensure_q_value(value, name="q_value"):
    """A Q-table entry or reward: finite, else the *simulation* is broken.

    Raises :class:`SimulationError` (not ``ConfigError``) — a NaN here
    means a diverged update reached the learner, not a bad parameter.
    """
    return ensure_finite(value, name, error_cls=SimulationError)


def checked(_returns=None, **param_validators):
    """Attach gated argument/return contracts to a function.

    ``checked(x=ensure_power_mw)`` validates parameter ``x`` on every
    call while :func:`contracts_enabled` is true; ``_returns=validator``
    additionally validates the return value.  With contracts disabled the
    wrapper adds a single boolean check of overhead.
    """
    def decorate(func):
        signature = inspect.signature(func)
        unknown = set(param_validators) - set(signature.parameters)
        if unknown:
            raise ConfigError(
                f"checked(): {func.__qualname__} has no parameter(s) "
                f"{sorted(unknown)}"
            )

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not contracts_enabled():
                return func(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for param_name, validator in param_validators.items():
                if param_name in bound.arguments:
                    validator(bound.arguments[param_name], name=param_name)
            result = func(*args, **kwargs)
            if _returns is not None:
                _returns(result, name=f"{func.__qualname__}() return")
            return result

        wrapper.__contracts__ = dict(param_validators)
        return wrapper

    return decorate

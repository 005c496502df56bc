"""Dynamic voltage and frequency scaling (DVFS) tables.

Table II gives each mobile processor a maximum frequency and a number of
V/F steps (e.g. the Mi8Pro CPU has 23 steps up to 2.8 GHz).  AutoScale
treats every V/F step of the local CPU and GPU as an augmented action, so
the exact step count matters: it is what makes the Mi8Pro action space come
out at the paper's ~66 actions.

Voltage is modelled as scaling linearly with frequency between a floor and
a peak voltage, the standard first-order approximation for mobile DVFS
rails.  Dynamic power then scales as V^2 * f (see ``repro.hardware.power``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import ConfigError

__all__ = ["VFStep", "build_vf_table"]


@dataclass(frozen=True)
class VFStep:
    """One operating point of a processor's DVFS rail."""

    freq_mhz: float
    voltage_v: float

    def __post_init__(self):
        if self.freq_mhz <= 0:
            raise ConfigError(f"frequency must be positive: {self.freq_mhz}")
        if self.voltage_v <= 0:
            raise ConfigError(f"voltage must be positive: {self.voltage_v}")


def build_vf_table(num_steps, max_freq_mhz, min_freq_ratio=0.3,
                   min_voltage_v=0.6, max_voltage_v=1.0):
    """Build an ascending V/F table with ``num_steps`` operating points.

    Frequencies are evenly spaced between ``min_freq_ratio * max_freq_mhz``
    and ``max_freq_mhz``; voltage interpolates linearly across that range.
    The last entry is always the peak operating point.
    """
    if num_steps < 1:
        raise ConfigError(f"need at least one V/F step, got {num_steps}")
    if max_freq_mhz <= 0:
        raise ConfigError(f"max frequency must be positive: {max_freq_mhz}")
    if not 0 < min_freq_ratio <= 1:
        raise ConfigError(f"min_freq_ratio outside (0, 1]: {min_freq_ratio}")
    if min_voltage_v > max_voltage_v:
        raise ConfigError("min voltage exceeds max voltage")

    steps = []
    min_freq_mhz = max_freq_mhz * min_freq_ratio
    for i in range(num_steps):
        fraction = 1.0 if num_steps == 1 else i / (num_steps - 1)
        freq_mhz = min_freq_mhz + (max_freq_mhz - min_freq_mhz) * fraction
        voltage = min_voltage_v + (max_voltage_v - min_voltage_v) * fraction
        steps.append(VFStep(freq_mhz=freq_mhz, voltage_v=voltage))
    return tuple(steps)

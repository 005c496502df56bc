"""Thermal throttling model.

The paper observes (Section III-B) that a CPU-intensive co-runner degrades
on-device inference not only through time-sharing but through *frequent
thermal throttling due to high CPU utilization*.  We model that with a
simple utilization-driven throttle: when the combined utilization of the
inference and its co-runners crosses a threshold, the effective clock is
scaled down, which the execution simulator applies as an extra slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import ConfigError, clamp

__all__ = ["ThermalModel"]


@dataclass(frozen=True)
class ThermalModel:
    """Utilization-triggered frequency throttling.

    Attributes:
        threshold: combined utilization above which throttling begins.
            The default of 1.0 means an inference alone never throttles —
            only the *addition* of co-runner load pushes the SoC past its
            sustained-power envelope (the Fig. 5 effect).
        max_cap: the lowest effective-frequency fraction the governor will
            throttle down to (reached at utilization 2.0, i.e. inference
            plus a fully CPU-bound co-runner).
    """

    threshold: float = 1.0
    max_cap: float = 0.62

    def __post_init__(self):
        if not 0.0 < self.threshold < 2.0:
            raise ConfigError(f"threshold outside (0, 2): {self.threshold}")
        if not 0.0 < self.max_cap <= 1.0:
            raise ConfigError(f"max_cap outside (0, 1]: {self.max_cap}")

    def frequency_cap(self, inference_util, corunner_util):
        """Effective-frequency fraction in (0, 1] under combined load."""
        # The common valid case in one comparison chain; the named
        # checks say which utilization is out of range.
        if not (0.0 <= inference_util <= 1.0
                and 0.0 <= corunner_util <= 1.0):
            for name, util in (("inference", inference_util),
                               ("corunner", corunner_util)):
                if not 0.0 <= util <= 1.0:
                    raise ConfigError(
                        f"{name} utilization outside [0, 1]: {util}")
        combined = inference_util + corunner_util
        if combined <= self.threshold:
            return 1.0
        overshoot = (combined - self.threshold) / (2.0 - self.threshold)
        return clamp(1.0 - overshoot * (1.0 - self.max_cap),
                     self.max_cap, 1.0)

    def slowdown(self, inference_util, corunner_util):
        """Latency multiplier (>= 1) implied by the frequency cap."""
        return 1.0 / self.frequency_cap(inference_util, corunner_util)

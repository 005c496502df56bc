"""Co-running application models.

Section III-B studies on-device interference from co-running applications:
a CPU-intensive co-runner degrades CPU inference (time-sharing plus thermal
throttling), while a memory-intensive one degrades *every* on-device
processor (they all share the DRAM controller).  Table IV's environments
use synthetic constant-load co-runners (S2, S3) and two real applications —
a music player and a web browser — driven by input traces (D1, D2, D4).

A co-runner exposes ``sample(rng, now_ms) -> CoRunnerLoad`` so dynamic
workloads can vary over virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.common import ConfigError

__all__ = [
    "CoRunnerLoad",
    "ConstantCoRunner",
    "TraceCoRunner",
    "SwitchingCoRunner",
    "no_corunner",
    "cpu_intensive_corunner",
    "memory_intensive_corunner",
    "music_player",
    "web_browser",
]


@dataclass(frozen=True)
class CoRunnerLoad:
    """Instantaneous interference intensity.

    ``cpu_util`` and ``mem_util`` are the fractions of CPU time and memory
    bandwidth the co-runner occupies — the quantities AutoScale reads from
    procfs for its S_Co_CPU and S_Co_MEM states.
    """

    cpu_util: float = 0.0
    mem_util: float = 0.0

    def __post_init__(self):
        # The common valid case in one comparison chain; the named
        # checks below say which field is out of range.
        if 0.0 <= self.cpu_util <= 1.0 and 0.0 <= self.mem_util <= 1.0:
            return
        for name, value in (("cpu_util", self.cpu_util),
                            ("mem_util", self.mem_util)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} outside [0, 1]: {value}")

    @property
    def is_idle(self):
        return self.cpu_util == 0.0 and self.mem_util == 0.0


@dataclass(frozen=True)
class ConstantCoRunner:
    """Fixed-intensity synthetic co-runner (environments S2 and S3)."""

    name: str
    load: CoRunnerLoad

    def sample(self, rng, now_ms=0.0):
        return self.load


@dataclass(frozen=True)
class TraceCoRunner:
    """Phase-trace co-runner: cycles through (duration, cpu, mem) phases.

    A small Gaussian jitter is applied per sample, mimicking the
    automatic-input-generator traces the paper replays for the browser.
    """

    name: str
    phases: Tuple[Tuple[float, float, float], ...]
    jitter: float = 0.03

    def __post_init__(self):
        if not self.phases:
            raise ConfigError(f"{self.name}: empty trace")
        for duration, cpu, mem in self.phases:
            if duration <= 0:
                raise ConfigError(f"{self.name}: non-positive phase duration")
            if not (0.0 <= cpu <= 1.0 and 0.0 <= mem <= 1.0):
                raise ConfigError(f"{self.name}: load outside [0, 1]")
        if self.jitter < 0:
            raise ConfigError(f"{self.name}: negative jitter")

    @cached_property
    def period_ms(self):
        return sum(duration for duration, _, _ in self.phases)

    def _phase_at(self, now_ms):
        offset = now_ms % self.period_ms
        for duration, cpu, mem in self.phases:
            if offset < duration:
                return cpu, mem
            offset -= duration
        # Floating-point edge: the very end of the period.
        _, cpu, mem = self.phases[-1]
        return cpu, mem

    def sample(self, rng, now_ms=0.0):
        cpu, mem = self._phase_at(now_ms)
        if self.jitter:
            # Both jitters in one draw: ``jitter * z`` of the same two
            # sequential draws two ``rng.normal(0.0, jitter)`` calls
            # make, clamped to [0, 1] as ``repro.common.clamp`` does.
            cpu_z, mem_z = rng.standard_normal(2).tolist()
            cpu = max(0.0, min(1.0, cpu + self.jitter * cpu_z))
            mem = max(0.0, min(1.0, mem + self.jitter * mem_z))
        return CoRunnerLoad(cpu_util=cpu, mem_util=mem)


@dataclass(frozen=True)
class SwitchingCoRunner:
    """Switches between co-runners over time (environment D4)."""

    name: str
    corunners: Tuple
    switch_every_ms: float = 60_000.0

    def __post_init__(self):
        if len(self.corunners) < 2:
            raise ConfigError(f"{self.name}: needs at least two co-runners")
        if self.switch_every_ms <= 0:
            raise ConfigError(f"{self.name}: switch period must be positive")

    def sample(self, rng, now_ms=0.0):
        index = int(now_ms // self.switch_every_ms) % len(self.corunners)
        return self.corunners[index].sample(rng, now_ms)


def no_corunner():
    """The quiescent device (environment S1)."""
    return ConstantCoRunner("none", CoRunnerLoad())


def cpu_intensive_corunner(cpu_util=0.9):
    """Synthetic CPU-bound co-runner (environment S2)."""
    return ConstantCoRunner(
        "cpu_intensive", CoRunnerLoad(cpu_util=cpu_util, mem_util=0.10)
    )


def memory_intensive_corunner(mem_util=0.95):
    """Synthetic memory-bound co-runner (environment S3)."""
    return ConstantCoRunner(
        "memory_intensive", CoRunnerLoad(cpu_util=0.20, mem_util=mem_util)
    )


def music_player():
    """Background music playback (environment D1): light, steady load."""
    return TraceCoRunner(
        name="music_player",
        phases=(
            (5_000.0, 0.08, 0.05),
            (2_000.0, 0.12, 0.08),   # codec refill burst
            (5_000.0, 0.06, 0.04),
        ),
        jitter=0.015,
    )


def web_browser():
    """Interactive browsing (environment D2): bursty CPU + memory load."""
    return TraceCoRunner(
        name="web_browser",
        phases=(
            (1_500.0, 0.75, 0.45),   # page load
            (4_000.0, 0.25, 0.20),   # reading / idle
            (1_000.0, 0.60, 0.50),   # scroll burst
            (3_500.0, 0.15, 0.12),
        ),
        jitter=0.05,
    )

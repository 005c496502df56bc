"""Workload generators: realistic inference request streams.

The paper's experiments issue back-to-back inferences of a single network.
Real intelligent services are burstier and more mixed — a photo assistant
fires on camera events, a translation keyboard on keystrokes pause, an AR
app streams frames for the length of a session.  These generators produce
timed :class:`InferenceRequest` streams for episode-level simulations
(``examples/multi_service.py`` runs a whole day-in-the-life on one):

- :class:`SteadyWorkload` — fixed-interval requests (the paper's setup);
- :class:`PoissonWorkload` — memoryless arrivals at a target rate;
- :class:`SessionWorkload` — alternating active sessions (dense
  requests) and idle gaps, like a user picking the phone up;
- :class:`MixedWorkload` — interleaves several services' workloads by
  arrival time, so one engine schedules competing networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common import ConfigError, make_rng

__all__ = [
    "InferenceRequest",
    "SteadyWorkload",
    "PoissonWorkload",
    "SessionWorkload",
    "MixedWorkload",
    "run_workload",
]


@dataclass(frozen=True)
class InferenceRequest:
    """One timed inference request of a use case."""

    at_ms: float
    use_case: object

    def __post_init__(self):
        if self.at_ms < 0:
            raise ConfigError(f"negative request time {self.at_ms}")


@dataclass(frozen=True)
class SteadyWorkload:
    """Fixed-interval requests — the paper's training regime."""

    use_case: object
    interval_ms: float = 1000.0

    def __post_init__(self):
        if self.interval_ms <= 0:
            raise ConfigError("interval must be positive")

    def generate(self, duration_ms, rng=None):
        count = int(duration_ms // self.interval_ms)
        return [InferenceRequest(i * self.interval_ms, self.use_case)
                for i in range(count)]


@dataclass(frozen=True)
class PoissonWorkload:
    """Memoryless arrivals at ``arrivals_per_s`` requests per second."""

    use_case: object
    arrivals_per_s: float = 1.0

    def __post_init__(self):
        if self.arrivals_per_s <= 0:
            raise ConfigError("rate must be positive")

    def generate(self, duration_ms, rng=None):
        rng = make_rng(rng)
        requests = []
        now = 0.0
        while True:
            now += rng.exponential(1000.0 / self.arrivals_per_s)
            if now >= duration_ms:
                break
            requests.append(InferenceRequest(now, self.use_case))
        return requests


@dataclass(frozen=True)
class SessionWorkload:
    """Bursty usage: dense in-session requests, long idle gaps."""

    use_case: object
    session_ms: float = 20_000.0
    idle_ms: float = 60_000.0
    in_session_interval_ms: float = 500.0

    def __post_init__(self):
        if min(self.session_ms, self.idle_ms,
               self.in_session_interval_ms) <= 0:
            raise ConfigError("all durations must be positive")

    def generate(self, duration_ms, rng=None):
        rng = make_rng(rng)
        requests = []
        now = 0.0
        while now < duration_ms:
            session_end = min(duration_ms,
                              now + rng.exponential(self.session_ms))
            while now < session_end:
                requests.append(InferenceRequest(now, self.use_case))
                now += rng.exponential(self.in_session_interval_ms)
            now = session_end + rng.exponential(self.idle_ms)
        return requests


@dataclass(frozen=True)
class MixedWorkload:
    """Several services' workloads merged by arrival time."""

    workloads: tuple

    def __post_init__(self):
        if not self.workloads:
            raise ConfigError("mixed workload needs at least one source")
        object.__setattr__(self, "workloads", tuple(self.workloads))

    def generate(self, duration_ms, rng=None):
        rng = make_rng(rng)
        requests: List[InferenceRequest] = []
        for workload in self.workloads:
            requests.extend(workload.generate(duration_ms, rng))
        return sorted(requests, key=lambda r: r.at_ms)


def run_workload(engine, workload, duration_ms, rng=None,
                 learn=True):
    """Drive an engine through a timed request stream.

    The environment's virtual clock is advanced to each request's arrival
    time (so dynamic scenarios' traces and signal walks progress with
    real gaps, not back-to-back inference), then one Algorithm-1 cycle
    runs.  Returns the list of :class:`AutoScaleStep` records.
    """
    requests = workload.generate(duration_ms, rng)
    env = engine.environment
    if learn:
        engine.unfreeze()
    else:
        engine.freeze()
    steps = []
    for request in requests:
        env.advance_clock_to(request.at_ms)
        steps.append(engine.step(request.use_case))
    return steps

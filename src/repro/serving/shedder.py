"""Deadline-aware load shedding.

A request that provably cannot meet its deadline is pure waste: serving
it burns energy to deliver a result nobody can use.  The shedder rejects
such work *before* execution, using the batched nominal model
(:meth:`~repro.env.environment.EdgeCloudEnvironment.estimate_all`) as
the feasibility oracle — if even the *fastest* currently-allowed target
cannot finish inside the request's remaining budget, no schedule can
save it.

A shed is a first-class typed outcome (:class:`SheddedRequest`), billed
at **zero** compute energy and zero clock time, and counted in a
:class:`ShedStats` ledger symmetric to the fault ledger
(:class:`~repro.faults.FaultStats`): every offered request is either
served, failed, or shed — the accounting tests pin that the three
partitions sum to the offered total.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.analysis.contracts import ensure_duration_ms
from repro.common import ConfigError, slot_init

__all__ = [
    "ShedReason",
    "SheddedRequest",
    "ShedStats",
    "DeadlinePolicy",
    "min_feasible_latency_ms",
]

_INF = float("inf")


class ShedReason(enum.Enum):
    """Why the pipeline refused to execute a request."""

    QUEUE_FULL = "queue_full"    # admission backpressure (bounded queue)
    EXPIRED = "expired"          # deadline already blown while queued
    INFEASIBLE = "infeasible"    # no allowed target can finish in time


@slot_init
@dataclass(frozen=True, slots=True)
class SheddedRequest:
    """The outcome of a request the pipeline declined to execute.

    Mirrors the read surface downstream accounting expects
    (``latency_ms``, ``energy_mj``, ``target_key``, ``accuracy_pct``)
    with the zero-compute bill a shed actually costs, and sets
    :attr:`shed` so consumers can branch — symmetric to
    :class:`~repro.faults.FailedAttempt`'s ``failed`` discriminator.

    Attributes:
        reason: why the request was shed.
        name: the registered use-case name.
        at_ms: the request's arrival time.
        shed_at_ms: virtual time of the shed decision.
        deadline_ms: the absolute deadline the request carried.
        queue_delay_ms: time spent queued before being shed.
    """

    reason: ShedReason
    name: str
    at_ms: float
    shed_at_ms: float
    deadline_ms: float
    queue_delay_ms: float = 0.0

    #: Class-level discriminators, mirroring ``FailedAttempt.failed``.
    shed = True
    failed = False

    def __post_init__(self):
        # One chained comparison accepts every valid request (NaN fails
        # every comparison); anything else goes through the named checks
        # below, which raise the precise contract violation.
        try:
            if (0.0 <= self.at_ms <= self.shed_at_ms < _INF
                    and 0.0 <= self.deadline_ms < _INF
                    and 0.0 <= self.queue_delay_ms < _INF):
                return
        except (TypeError, ValueError):
            pass
        ensure_duration_ms(self.at_ms, "at_ms")
        ensure_duration_ms(self.shed_at_ms, "shed_at_ms")
        ensure_duration_ms(self.deadline_ms, "deadline_ms")
        ensure_duration_ms(self.queue_delay_ms, "queue_delay_ms")
        if self.shed_at_ms < self.at_ms:
            raise ConfigError(
                f"shed at {self.shed_at_ms} ms before arrival {self.at_ms}"
            )

    @property
    def latency_ms(self):
        """A shed consumes no service time."""
        return 0.0

    @property
    def energy_mj(self):
        """The whole point: a shed bills zero compute energy."""
        return 0.0

    @property
    def estimated_energy_mj(self):
        return 0.0

    @property
    def accuracy_pct(self):
        """No inference was delivered."""
        return 0.0

    @property
    def target_key(self):
        return f"shed/{self.reason.value}"

    def meets_qos(self, qos_ms):
        """A shed request never satisfies its QoS."""
        return False


class ShedStats:
    """Cumulative shed counters (the zero-compute ledger).

    Symmetric to :class:`~repro.faults.FaultStats`: ``offered`` counts
    every request the pipeline saw, ``sheds`` partitions the refused ones
    by reason, and ``billed_energy_mj`` is identically zero — pinned by
    tests so "shedding is free" stays true as the pipeline evolves.
    """

    def __init__(self):
        self.offered = 0
        self.served = 0
        self.sheds: Dict[str, int] = {}

    @property
    def total_sheds(self):
        return sum(self.sheds.values())

    @property
    def billed_energy_mj(self):
        """Sheds execute nothing; the ledger bills nothing."""
        return 0.0

    def note_offered(self):
        self.offered += 1

    def note_served(self):
        self.served += 1

    def note_shed(self, reason):
        self.sheds[reason.value] = self.sheds.get(reason.value, 0) + 1

    def shed_pct(self):
        """Share of offered requests shed, in percent (0.0 when idle)."""
        if self.offered == 0:
            return 0.0
        return self.total_sheds / self.offered * 100.0

    def as_dict(self):
        return {
            "offered": self.offered,
            "served": self.served,
            "sheds": dict(self.sheds),
            "billed_energy_mj": self.billed_energy_mj,
        }


@dataclass(frozen=True)
class DeadlinePolicy:
    """How a request's absolute deadline derives from its QoS target.

    ``deadline_ms = arrival_ms + qos_ms * qos_factor + slack_ms`` — the
    factor scales with the use case's urgency (a 33 ms streaming frame
    gets a proportionally tighter deadline than a 100 ms translation),
    the slack admits a fixed scheduling allowance.  The default factor
    of 1 makes the deadline exactly the end-to-end QoS budget — shed
    precisely the work that provably cannot meet its QoS; a factor
    above 1 keeps slightly-late-but-useful work alive instead.

    **The deadline is inclusive**: a request whose service completes at
    exactly ``deadline_ms`` has met it.  Both shed checks follow the
    same convention and the boundary tests pin it:

    - ``EXPIRED`` fires only once ``now_ms > deadline_ms`` (remaining
      budget strictly negative) — at ``remaining == 0`` the deadline is
      not yet blown, since a completion at this instant would still
      count;
    - ``INFEASIBLE`` fires once ``now_ms + floor_ms > deadline_ms`` —
      a fastest-target estimate landing exactly *on* the deadline
      (``floor == remaining``) is kept, one ulp past it is shed.

    So a request reaching the head of the queue at exactly its deadline
    is shed as ``INFEASIBLE`` (any positive service floor overshoots),
    not ``EXPIRED`` — the deadline itself was still alive.
    """

    qos_factor: float = 1.0
    slack_ms: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.qos_factor) or self.qos_factor <= 0:
            raise ConfigError(f"bad deadline QoS factor: {self.qos_factor}")
        if not math.isfinite(self.slack_ms) or self.slack_ms < 0:
            raise ConfigError(f"bad deadline slack: {self.slack_ms} ms")

    def deadline_ms(self, arrival_ms, qos_ms):
        """The absolute deadline for a request arriving at ``arrival_ms``."""
        return arrival_ms + qos_ms * self.qos_factor + self.slack_ms


def min_feasible_latency_ms(sweep, allowed=None):
    """The tightest provable lower bound on serving one request now.

    The minimum nominal latency across the currently allowed targets of
    a :class:`~repro.env.costcache.NominalSweep`.  If even this bound
    exceeds a request's remaining budget, *no* action the engine could
    pick meets the deadline, so shedding is provably safe.  A mask with
    no allowed entry is treated as no mask (matching
    ``select_action``'s convention).
    """
    latencies = np.asarray(sweep.latency_ms)
    if allowed is not None:
        mask = np.asarray(allowed, dtype=bool)
        if mask.shape != latencies.shape:
            raise ConfigError(
                f"mask of {mask.shape} entries for {latencies.shape} targets"
            )
        if mask.any():
            latencies = latencies[mask]
    return float(latencies.min())


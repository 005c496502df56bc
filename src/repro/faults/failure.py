"""Typed failed attempts and the runtime fault injector.

A failed offload is not a slow offload: the request produced *no* result,
but the phone still paid for the attempt — transmit energy up to the
point of death, the platform idle floor while waiting, a connect timeout
against a dead endpoint.  :class:`FailedAttempt` carries exactly that
bill, so failed energy flows into traces and rewards instead of
vanishing; :class:`FaultInjector` decides, per remote attempt, whether a
:class:`~repro.faults.plan.FaultPlan` kills it and what the corpse costs.

Billing model: a truncated attempt is billed the *elapsed fraction* of
the full attempt's energy (a linear burn).  The true radio profile is
front-loaded (TX first), so this slightly under-bills early deaths and
over-bills late ones, but it conserves energy exactly — the sum of a
truncated attempt and its unspent remainder is the full attempt — which
is the property the accounting tests pin.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field
from typing import Dict

from repro.analysis.contracts import ensure_energy_mj, ensure_latency_ms
from repro.common import ConfigError, SimulationError, slot_init
from repro.faults.plan import FaultPlan

__all__ = ["FaultKind", "FailedAttempt", "FaultStats", "FaultInjector",
           "truncate_attempt"]


class FaultKind(enum.Enum):
    """Why a remote execution attempt died."""

    PACKET_LOSS = "packet_loss"    # transfer died on the wireless link
    UNAVAILABLE = "unavailable"    # endpoint hard-down (outage window)
    ABORT = "abort"                # attempt torn down mid-flight
    TIMEOUT = "timeout"            # aborted by the deadline policy


@slot_init
@dataclass(frozen=True, slots=True)
class FailedAttempt:
    """The bill for a remote attempt that produced no result.

    Mirrors the :class:`~repro.env.result.ExecutionResult` surface that
    downstream accounting reads (``latency_ms``, ``energy_mj``,
    ``estimated_energy_mj``, ``accuracy_pct``, ``target_key``,
    ``detail``, ``meets_qos``) so naive consumers degrade gracefully,
    and sets :attr:`failed` so resilient ones can branch.

    Attributes:
        kind: why the attempt died.
        target_key: the attempted execution target.
        latency_ms: time elapsed before the attempt died.
        energy_mj: ground-truth energy billed to the dead attempt.
        estimated_energy_mj: the eq. (1)-(4) estimate of that bill (the
            engine trains its reward on estimates, failures included).
        detail: fault-specific breakdown for analysis and tests.
    """

    kind: FaultKind
    target_key: str
    latency_ms: float
    energy_mj: float
    estimated_energy_mj: float
    detail: Dict[str, float] = field(default_factory=dict)

    #: Class-level discriminators; ``ExecutionResult.failed`` is False,
    #: and a failed attempt was executed, not shed.
    failed = True
    shed = False

    def __post_init__(self):
        ensure_latency_ms(self.latency_ms, "latency_ms")
        ensure_energy_mj(self.energy_mj, "energy_mj")
        ensure_energy_mj(self.estimated_energy_mj, "estimated_energy_mj")
        if self.energy_mj <= 0 or self.estimated_energy_mj <= 0:
            raise ConfigError("failed attempts still burn energy; "
                              "non-positive bill")

    @property
    def accuracy_pct(self):
        """No inference was delivered."""
        return 0.0

    def meets_qos(self, qos_ms):
        """A failed attempt never satisfies the request's QoS."""
        return False


def truncate_attempt(result, elapsed_ms, kind, extra_detail=None):
    """Kill a would-be execution ``elapsed_ms`` into its timeline.

    Bills the elapsed fraction of the full attempt's ground-truth and
    estimated energy (linear burn; see the module docstring).
    """
    if not 0.0 < elapsed_ms < result.latency_ms:
        raise SimulationError(
            f"cannot truncate a {result.latency_ms} ms attempt at "
            f"{elapsed_ms} ms"
        )
    fraction = elapsed_ms / result.latency_ms
    detail = {
        "full_latency_ms": result.latency_ms,
        "full_energy_mj": result.energy_mj,
        "elapsed_fraction": fraction,
    }
    if extra_detail:
        detail.update(extra_detail)
    return FailedAttempt(
        kind=kind,
        target_key=result.target_key,
        latency_ms=elapsed_ms,
        energy_mj=result.energy_mj * fraction,
        estimated_energy_mj=result.estimated_energy_mj * fraction,
        detail=detail,
    )


class FaultStats:
    """Cumulative fault-injection counters (conservation ledger)."""

    def __init__(self):
        self.attempts = 0
        self.failures: Dict[str, int] = {}
        self.stragglers = 0
        self.billed_energy_mj = 0.0
        self.billed_estimated_energy_mj = 0.0

    @property
    def total_failures(self):
        return sum(self.failures.values())

    def as_dict(self):
        return {
            "attempts": self.attempts,
            "failures": dict(self.failures),
            "stragglers": self.stragglers,
            "billed_energy_mj": self.billed_energy_mj,
            "billed_estimated_energy_mj": self.billed_estimated_energy_mj,
        }


class FaultInjector:
    """Samples a :class:`~repro.faults.plan.FaultPlan` per remote attempt.

    The environment calls :meth:`apply` with the would-be
    :class:`~repro.env.result.ExecutionResult` of the attempt; the
    injector either passes it through, stretches it (straggler), or
    replaces it with a :class:`FailedAttempt` whose energy bill is
    recorded in :attr:`stats` (the ledger the conservation tests audit).

    Fault order per attempt: unavailability (deterministic from the
    clock: :meth:`~repro.faults.plan.FaultPlan.outage_covers` at the
    attempt's start), packet loss (RSSI-tied), mid-flight abort,
    straggler stretch, then the caller's deadline.  Inactive faults
    draw nothing from ``rng``, so a ``FaultPlan.none()`` injector is a
    strict no-op.  A ``None`` plan means ``FaultPlan.none()``.
    """

    def __init__(self, plan=None):
        self.plan = plan if plan is not None else FaultPlan.none()
        self.stats = FaultStats()

    @property
    def active(self):
        return self.plan.active

    # ------------------------------------------------------------------
    # Per-attempt application
    # ------------------------------------------------------------------

    def apply(self, result, target, link, rssi_dbm, now_ms, rng,
              idle_power_mw, deadline_ms=None):
        """Apply the plan (and the caller's deadline) to one attempt.

        Args:
            result: the full, would-be :class:`ExecutionResult`.
            target: the attempted remote :class:`ExecutionTarget`.
            link: the radio link the attempt used.
            rssi_dbm: signal strength the attempt saw.
            now_ms: virtual time the attempt started.
            rng: the environment's generator (``make_rng`` funnel).
            idle_power_mw: the phone's idle floor (platform + host CPU +
                radio idle) used to bill waits that run no computation.
            deadline_ms: abort the attempt at this elapsed time if its
                completion would run past it (``None`` disables).

        Returns the surviving (possibly stretched) result or a
        :class:`FailedAttempt`.
        """
        self.stats.attempts += 1
        plan = self.plan
        if plan.outage_covers(target.location, now_ms):
            elapsed_ms = plan.unavailable_timeout_ms
            idle_mj = idle_power_mw * elapsed_ms / 1000.0
            return self._book(FailedAttempt(
                kind=FaultKind.UNAVAILABLE,
                target_key=result.target_key,
                latency_ms=elapsed_ms,
                energy_mj=idle_mj,
                estimated_energy_mj=idle_mj,
                detail={"idle_power_mw": idle_power_mw},
            ))

        loss_prob = plan.loss_scale * link.loss_probability(rssi_dbm)
        if loss_prob > 0.0 and rng.random() < loss_prob:
            # The transfer dies somewhere inside the radio phase.
            radio_ms = (result.detail.get("tx_ms", 0.0)
                        + result.detail.get("rtt_ms", 0.0))
            window_ms = radio_ms if radio_ms > 0.0 else result.latency_ms
            elapsed_ms = (0.1 + 0.8 * float(rng.random())) * window_ms
            return self._book(truncate_attempt(
                result, elapsed_ms, FaultKind.PACKET_LOSS,
                {"loss_prob": loss_prob},
            ))

        if plan.abort_prob > 0.0 and rng.random() < plan.abort_prob:
            elapsed_ms = (0.1 + 0.8 * float(rng.random())) \
                * result.latency_ms
            return self._book(truncate_attempt(
                result, elapsed_ms, FaultKind.ABORT,
            ))

        if plan.straggler_prob > 0.0 and rng.random() < plan.straggler_prob:
            result = self._stretch(result, idle_power_mw)
            self.stats.stragglers += 1

        if deadline_ms is not None and result.latency_ms > deadline_ms:
            return self._book(truncate_attempt(
                result, deadline_ms, FaultKind.TIMEOUT,
                {"deadline_ms": deadline_ms},
            ))
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _book(self, failure):
        self.stats.failures[failure.kind.value] = \
            self.stats.failures.get(failure.kind.value, 0) + 1
        self.stats.billed_energy_mj += failure.energy_mj
        self.stats.billed_estimated_energy_mj += \
            failure.estimated_energy_mj
        return failure

    def _stretch(self, result, idle_power_mw):
        """Straggler: stretch the remote-compute phase, bill the wait."""
        remote_ms = result.detail.get("remote_ms", 0.0)
        extra_ms = (self.plan.straggler_factor - 1.0) * remote_ms
        if extra_ms <= 0.0 or not math.isfinite(extra_ms):
            return result
        extra_mj = idle_power_mw * extra_ms / 1000.0
        return dataclasses.replace(
            result,
            latency_ms=result.latency_ms + extra_ms,
            energy_mj=result.energy_mj + extra_mj,
            estimated_energy_mj=result.estimated_energy_mj + extra_mj,
            detail={**result.detail, "straggler_extra_ms": extra_ms},
        )

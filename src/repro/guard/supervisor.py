"""The hysteretic policy-health supervisor.

:class:`PolicyGuard` maps sustained detector alarms to *staged*
responses, one rung per escalation:

.. code-block:: text

                alarms x escalate_ticks         alarms          alarms
    HEALTHY  ------------------------->  READAPT ----->  SHADOW ----->  DEGRADE
       ^                                    |               |              |
       +-------- quiet x recover_ticks -----+---------------+--------------+
                    (one rung down per dwell, never a direct drop)

- **HEALTHY** — the learned policy decides; detectors observe.
- **READAPT** — the policy still decides, but with a boosted learning
  rate and exploration re-enabled, so the table re-learns the shifted
  world quickly.
- **SHADOW** — decisions switch to the zero-extra-energy nominal-argmin
  baseline (``estimate_all`` is already computed on the serving path);
  Q-learning keeps updating *off-policy* from the shadow decisions.
- **DEGRADE** — the shadow baseline restricted to local targets: the
  PR 3/PR 4 graceful-degradation posture, immune to remote drift.

Hysteresis: escalation needs ``escalate_ticks`` consecutive alarmed
``GUARD_TICK`` evaluations; recovery needs ``recover_ticks`` consecutive
quiet ones and descends exactly one rung per dwell, so the supervisor
cannot flap.  Detector transients reset on every transition — each rung
re-earns its evidence.  Every transition is recorded with a reason code
and lands in the serving trace (see ``ServingPipeline``).

The whole supervisor is RNG-free and wall-clock-free; ticks arrive as
typed ``GUARD_TICK`` events on the :mod:`repro.sim` heap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass
from typing import Dict, List

from repro.common import ConfigError
from repro.guard.detectors import (
    QSurgeDetector,
    ResidualDetector,
    StreakDetector,
)

__all__ = ["GuardStage", "GuardConfig", "GuardTransition", "PolicyGuard"]


class GuardStage(enum.Enum):
    """The supervisor's response ladder, mildest first."""

    HEALTHY = "healthy"
    READAPT = "readapt"
    SHADOW = "shadow"
    DEGRADE = "degrade"

    @property
    def depth(self):
        """Rung index on the ladder (0 = HEALTHY)."""
        return _LADDER.index(self)


_LADDER = (GuardStage.HEALTHY, GuardStage.READAPT, GuardStage.SHADOW,
           GuardStage.DEGRADE)


@dataclass(frozen=True)
class GuardConfig:
    """Thresholds and dwell times of the supervisor.

    Attributes:
        enabled: master switch; :meth:`disabled` (the system default)
            makes the guard fully inert — no ticks, no detector feeds,
            bit-identical serving.
        tick_interval_ms: spacing of ``GUARD_TICK`` events on the heap.
        residual_warmup: per-bucket samples before the residual CUSUM
            arms (the learned baseline freezes here).
        residual_k_sigma: CUSUM allowance (drift slack) in sigmas.
        residual_h_sigma: CUSUM alarm threshold in sigmas.
        qos_streak_limit: consecutive bad outcomes per streak alarm.
        qsurge_warmup: Q-updates before the surge detector arms.
        qsurge_factor: fast-EWMA multiple of baseline that counts as
            surging.
        qsurge_sustain: consecutive surging updates per alarm.
        escalate_ticks: alarmed ticks in a row before climbing a rung.
        recover_ticks: quiet ticks in a row before descending a rung.
        readapt_gamma_scale: multiplier on the learning rate while in
            READAPT (capped so the effective value stays <= 1.0).
        readapt_epsilon: exploration probability while in READAPT.
    """

    enabled: bool = True
    tick_interval_ms: float = 1_000.0
    residual_warmup: int = 40
    residual_k_sigma: float = 1.0
    residual_h_sigma: float = 16.0
    qos_streak_limit: int = 12
    qsurge_warmup: int = 60
    qsurge_factor: float = 8.0
    qsurge_sustain: int = 12
    escalate_ticks: int = 1
    recover_ticks: int = 8
    readapt_gamma_scale: float = 1.1
    readapt_epsilon: float = 0.2

    def __post_init__(self):
        if not (math.isfinite(self.tick_interval_ms)
                and self.tick_interval_ms > 0):
            raise ConfigError(
                f"tick_interval_ms must be finite and > 0, "
                f"got {self.tick_interval_ms}"
            )
        for name in ("residual_warmup", "qos_streak_limit",
                     "qsurge_warmup", "qsurge_sustain",
                     "escalate_ticks", "recover_ticks"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(
                    f"{name} must be an int >= 1, got {value!r}"
                )
        for name in ("residual_k_sigma", "residual_h_sigma",
                     "qsurge_factor", "readapt_gamma_scale"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float))
                    and math.isfinite(value) and value > 0):
                raise ConfigError(
                    f"{name} must be finite and > 0, got {value!r}"
                )
        if not 0.0 <= self.readapt_epsilon <= 1.0:
            raise ConfigError(
                f"readapt_epsilon outside [0, 1]: {self.readapt_epsilon}"
            )

    @classmethod
    def disabled(cls):
        """The inert default: observe nothing, change nothing."""
        return cls(enabled=False)

    def as_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class GuardTransition:
    """One supervisor stage change, as it lands in the status feed."""

    at_ms: float
    from_stage: str
    to_stage: str
    reason: str

    def __post_init__(self):
        if not (math.isfinite(self.at_ms) and self.at_ms >= 0):
            raise ConfigError(f"bad transition time: {self.at_ms} ms")


class PolicyGuard:
    """The runtime supervisor: detectors in, staged responses out.

    The serving pipeline feeds per-request observations
    (:meth:`note_result`, :meth:`note_refusal`) and per-update learning
    signals (:meth:`note_q_delta`) as they happen, and calls
    :meth:`evaluate` once per ``GUARD_TICK`` event; the current
    :attr:`stage` is read back at decision time.  With
    ``GuardConfig.disabled()`` every method is a no-op.
    """

    #: Cap on retained transitions (the full counts stay exact).
    MAX_TRANSITIONS = 1_000

    def __init__(self, config=None):
        self.config = config if config is not None else GuardConfig()
        self.stage = GuardStage.HEALTHY
        self.residual = ResidualDetector(
            warmup=self.config.residual_warmup,
            k_sigma=self.config.residual_k_sigma,
            h_sigma=self.config.residual_h_sigma,
        )
        self.streaks = StreakDetector(limit=self.config.qos_streak_limit)
        self.qsurge = QSurgeDetector(
            warmup=self.config.qsurge_warmup,
            factor=self.config.qsurge_factor,
            sustain=self.config.qsurge_sustain,
        )
        self.ticks = 0
        self.escalations = 0
        self.deescalations = 0
        self.alarm_counts: Dict[str, int] = {}
        self.transitions: List[GuardTransition] = []
        self._alarmed_ticks = 0
        self._quiet_ticks = 0

    @property
    def enabled(self):
        return self.config.enabled

    @property
    def active(self):
        """Whether the supervisor currently overrides anything."""
        return self.enabled and self.stage is not GuardStage.HEALTHY

    # ------------------------------------------------------------------
    # Detector feeds (called from the serving hot path)
    # ------------------------------------------------------------------

    def note_result(self, bucket_key, nominal_mj, actual_mj, qos_ok):
        """One delivered request: cost residual + QoS outcome."""
        if not self.enabled:
            return
        if nominal_mj > 0 and math.isfinite(actual_mj):
            self.residual.note(bucket_key,
                               (actual_mj - nominal_mj) / nominal_mj)
        self.streaks.note(qos_ok)

    def note_refusal(self):
        """One refused request (failed or shed): a bad outcome."""
        if not self.enabled:
            return
        self.streaks.note(False)

    def note_qos(self, qos_ok):
        """One delivered request with no residual available (the
        resilient path re-observes per attempt, so there is no single
        nominal prediction to compare against)."""
        if not self.enabled:
            return
        self.streaks.note(qos_ok)

    def note_q_delta(self, delta, gamma):
        """One Q update's raw magnitude, normalized by the learning
        rate in force — a READAPT-boosted rate must not self-excite
        the surge detector."""
        if not self.enabled or gamma <= 0:
            return
        self.qsurge.note(delta / gamma)

    # ------------------------------------------------------------------
    # GUARD_TICK evaluation
    # ------------------------------------------------------------------

    def evaluate(self, now_ms):
        """One tick: drain alarms, advance the hysteretic ladder.

        Returns the transitions applied this tick (at most one).
        """
        if not self.enabled:
            return []
        self.ticks += 1
        reasons = (self.residual.drain() + self.streaks.drain()
                   + self.qsurge.drain())
        for reason in reasons:
            self.alarm_counts[reason] = self.alarm_counts.get(reason, 0) + 1
        if reasons:
            self._quiet_ticks = 0
            self._alarmed_ticks += 1
            if (self._alarmed_ticks >= self.config.escalate_ticks
                    and self.stage is not GuardStage.DEGRADE):
                label = "+".join(sorted(set(reasons)))
                return [self._shift(now_ms, +1, label)]
            return []
        self._alarmed_ticks = 0
        if self.stage is GuardStage.HEALTHY:
            return []
        self._quiet_ticks += 1
        if self._quiet_ticks >= self.config.recover_ticks:
            return [self._shift(now_ms, -1, "recovered")]
        return []

    def _shift(self, now_ms, direction, reason):
        from_stage = self.stage
        self.stage = _LADDER[from_stage.depth + direction]
        if direction > 0:
            self.escalations += 1
        else:
            self.deescalations += 1
        self._alarmed_ticks = 0
        self._quiet_ticks = 0
        # Each rung earns its evidence fresh: zero the accumulators but
        # keep the learned baselines.
        self.residual.reset_transients()
        self.streaks.reset_transients()
        self.qsurge.reset_transients()
        transition = GuardTransition(
            at_ms=float(now_ms), from_stage=from_stage.value,
            to_stage=self.stage.value, reason=reason,
        )
        if len(self.transitions) < self.MAX_TRANSITIONS:
            self.transitions.append(transition)
        return transition

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def annotation(self):
        """The reason code stamped on trace rows (empty when inert)."""
        if self.active:
            return f"guard/{self.stage.value}"
        return ""

    def status(self):
        """Counters for ``ServingPipeline.status()`` / service health."""
        return {
            "enabled": self.enabled,
            "stage": self.stage.value,
            "ticks": self.ticks,
            "escalations": self.escalations,
            "deescalations": self.deescalations,
            "alarms": dict(sorted(self.alarm_counts.items())),
            "transitions": len(self.transitions),
        }

    # ------------------------------------------------------------------
    # Persistence (see repro.core.persistence)
    # ------------------------------------------------------------------

    def state_dict(self):
        """The exact supervisor state, JSON-serializable."""
        return {
            "stage": self.stage.value,
            "ticks": self.ticks,
            "escalations": self.escalations,
            "deescalations": self.deescalations,
            "alarmed_ticks": self._alarmed_ticks,
            "quiet_ticks": self._quiet_ticks,
            "alarm_counts": dict(sorted(self.alarm_counts.items())),
            "transitions": [asdict(t) for t in self.transitions],
            "residual": self.residual.state_dict(),
            "streaks": self.streaks.state_dict(),
            "qsurge": self.qsurge.state_dict(),
        }

    def load_state_dict(self, state):
        """Restore an exact supervisor state (inverse of
        :meth:`state_dict`); raises :class:`ConfigError` on a malformed
        blob."""
        try:
            stage = GuardStage(state["stage"])
            ticks = int(state["ticks"])
            escalations = int(state["escalations"])
            deescalations = int(state["deescalations"])
            alarmed_ticks = int(state["alarmed_ticks"])
            quiet_ticks = int(state["quiet_ticks"])
            alarm_counts = {str(k): int(v)
                            for k, v in state["alarm_counts"].items()}
            transitions = [GuardTransition(**t)
                           for t in state["transitions"]]
            residual = state["residual"]
            streaks = state["streaks"]
            qsurge = state["qsurge"]
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigError(
                f"corrupt guard state: {error}"
            ) from None
        self.residual.load_state_dict(residual)
        self.streaks.load_state_dict(streaks)
        self.qsurge.load_state_dict(qsurge)
        self.stage = stage
        self.ticks = ticks
        self.escalations = escalations
        self.deescalations = deescalations
        self._alarmed_ticks = alarmed_ticks
        self._quiet_ticks = quiet_ticks
        self.alarm_counts = alarm_counts
        self.transitions = transitions
